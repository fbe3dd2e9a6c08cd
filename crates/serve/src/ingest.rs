//! Ingest: feed a [`Supervisor`] from a replayable submission source.
//!
//! Two sources share one line-oriented code path:
//!
//! * **jsonl** (file or stdin) — the deterministic mode. Replaying the
//!   same file through the same config reproduces the same merged digest,
//!   which is what the CI smoke step and the chaos tests assert.
//! * **TCP** — the live mode. Connections are served sequentially; each
//!   connection streams jsonl lines and receives one acknowledgement line
//!   per submission (`ok <outcome>` / `err <reason>`), so a client can
//!   observe sheds and SLO rejections instead of discovering them never.
//!
//! Malformed lines are counted and skipped (`IngestStats::parse_errors`),
//! never fatal: a bad client must not take the service down. I/O errors
//! on the transport itself surface as [`RuntimeError::Io`].

use crate::admission::Outcome;
use crate::protocol::parse_submission;
use crate::supervisor::Supervisor;
use parflow_runtime::RuntimeError;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

/// What one ingest pass consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Lines offered to the supervisor.
    pub offered: u64,
    /// Malformed lines counted and skipped.
    pub parse_errors: u64,
}

/// The live protocol's acknowledgement line for an outcome.
fn ack_line(outcome: &Outcome) -> &'static [u8] {
    match outcome {
        Outcome::Admitted { .. } => b"ok admitted\n",
        Outcome::Shed { .. } => b"ok shed\n",
        Outcome::RejectedSlo { .. } => b"ok rejected-slo\n",
        Outcome::Duplicate => b"ok duplicate\n",
    }
}

fn io_error(e: std::io::Error) -> RuntimeError {
    RuntimeError::Io(e.to_string())
}

/// The one line loop: read each line into one reused buffer, skip blank
/// lines and `#` comments, count malformed lines, offer, pump. With an
/// ack writer every counted line is acknowledged, and a failed read or
/// write ends the connection quietly (the client went away; the service
/// lives on); without one a failed read is an error.
fn feed<R: BufRead>(
    sup: &mut Supervisor,
    mut reader: R,
    mut acks: Option<&mut dyn Write>,
    stats: &mut IngestStats,
) -> Result<(), RuntimeError> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(_) if acks.is_some() => return Ok(()),
            Err(e) => return Err(io_error(e)),
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let acked = match parse_submission(trimmed) {
            Ok(sub) => {
                stats.offered += 1;
                let outcome = sup.offer(sub);
                acks.as_mut().map(|w| w.write_all(ack_line(&outcome)))
            }
            Err(e) => {
                stats.parse_errors += 1;
                acks.as_mut()
                    .map(|w| w.write_all(format!("err {e}\n").as_bytes()))
            }
        };
        if let Some(Err(_)) = acked {
            return Ok(());
        }
        sup.pump();
    }
}

/// Feed every jsonl line from `reader` into the supervisor, pumping as we
/// go. Blank lines and `#` comments are skipped silently; malformed lines
/// are counted. This is the deterministic replay path.
pub fn run_jsonl<R: BufRead>(sup: &mut Supervisor, reader: R) -> Result<IngestStats, RuntimeError> {
    let mut stats = IngestStats::default();
    feed(sup, reader, None, &mut stats)?;
    Ok(stats)
}

/// Serve jsonl submissions over TCP: accept `max_conns` connections
/// sequentially, acking each line. The caller binds the listener (so
/// tests can bind port 0) and finishes the supervisor afterwards.
pub(crate) fn run_tcp_listener(
    sup: &mut Supervisor,
    listener: &TcpListener,
    max_conns: usize,
) -> Result<IngestStats, RuntimeError> {
    let mut stats = IngestStats::default();
    for _ in 0..max_conns {
        let (stream, _) = listener.accept().map_err(io_error)?;
        let mut writer = stream.try_clone().map_err(io_error)?;
        feed(sup, BufReader::new(stream), Some(&mut writer), &mut stats)?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::ServeConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn quick_sup(workers: usize) -> Supervisor {
        let mut cfg = ServeConfig::new(workers);
        cfg.iters_per_unit = 1;
        Supervisor::new(cfg).expect("config valid")
    }

    #[test]
    fn jsonl_replay_counts_and_skips() {
        let input = "\
# a comment
{\"id\": 0, \"arrival\": 0, \"work\": 3}

{\"id\": 1, \"arrival\": 5, \"work\": 3}
this line is garbage
{\"id\": 2, \"arrival\": 9, \"work\": 3}
";
        let mut sup = quick_sup(2);
        let stats = run_jsonl(&mut sup, input.as_bytes()).expect("ingest ok");
        assert_eq!(stats.offered, 3);
        assert_eq!(stats.parse_errors, 1);
        let report = sup.finish();
        assert_eq!(report.admitted, 3);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn tcp_acks_every_line() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut w = stream.try_clone().expect("clone");
            let mut lines = BufReader::new(stream).lines();
            let mut acks = Vec::new();
            for line in [
                "{\"id\": 0, \"arrival\": 0, \"work\": 2}",
                "not json",
                "{\"id\": 0, \"arrival\": 1, \"work\": 2}",
            ] {
                w.write_all(line.as_bytes()).expect("send");
                w.write_all(b"\n").expect("send nl");
                w.flush().expect("flush");
                acks.push(lines.next().expect("ack line").expect("ack io"));
            }
            drop(w);
            acks
        });
        let mut sup = quick_sup(1);
        let stats = run_tcp_listener(&mut sup, &listener, 1).expect("serve ok");
        let acks = client.join().expect("client thread");
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(acks[0], "ok admitted");
        assert!(acks[1].starts_with("err "), "{}", acks[1]);
        assert_eq!(acks[2], "ok duplicate");
        let report = sup.finish();
        assert_eq!(report.completed, 1);
    }
}
