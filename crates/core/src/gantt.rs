//! ASCII Gantt rendering of schedule traces — one row per processor, one
//! column per round — for debugging schedulers and for documentation.

use crate::trace::{Action, ScheduleTrace};
use parflow_dag::JobId;
use parflow_time::Round;
use std::fmt::Write as _;

/// Symbol assigned to a job: letters cycle a–z then A–Z.
fn job_symbol(job: JobId) -> char {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    ALPHA[(job as usize) % ALPHA.len()] as char
}

/// Render rounds `[from, to)` of a trace as an ASCII Gantt chart.
///
/// Symbols: a letter = working on that job (letters cycle per job id),
/// `*` = steal attempt, `.` = idle. A header row marks
/// every tenth round; a legend lists the jobs appearing in the window.
///
/// Intended for small windows (`to − from` up to ~120 columns).
pub fn render_gantt(trace: &ScheduleTrace, from: Round, to: Round) -> String {
    let num_rounds = trace.num_rounds() as usize;
    let from = (from as usize).min(num_rounds);
    let to = (to as usize).clamp(from, num_rounds);
    let width = to - from;
    let mut out = String::new();

    // Header: round ruler.
    let _ = write!(out, "{:>5} ", "round");
    for r in from..to {
        out.push(if r % 10 == 0 { '|' } else { ' ' });
    }
    out.push('\n');

    // Materialize the window once (the trace stores its rows as cells
    // and idle stretches run-length encoded).
    let window = trace.dense(from, to);

    let mut seen: Vec<JobId> = Vec::new();
    for p in 0..trace.m {
        let _ = write!(out, "  P{p:<3} ");
        for row in &window {
            let c = match row[p] {
                Action::Work { job, .. } => {
                    if !seen.contains(&job) {
                        seen.push(job);
                    }
                    job_symbol(job)
                }
                Action::Steal { .. } => '*',
                Action::Idle => '.',
            };
            out.push(c);
        }
        out.push('\n');
    }

    // Legend.
    seen.sort_unstable();
    let _ = write!(out, "  jobs:");
    for job in seen {
        let _ = write!(out, " {}=J{}", job_symbol(job), job);
    }
    let _ = writeln!(out, "   (*=steal  .=idle)  rounds {from}..{}", to);
    let _ = width;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::{run_priority, Fifo};
    use crate::config::SimConfig;
    use crate::worksteal::{run_worksteal, StealPolicy};
    use parflow_dag::{shapes, Instance, Job};
    use std::sync::Arc;

    fn small_instance() -> Instance {
        let dag = Arc::new(shapes::diamond(3, 2));
        Instance::new(
            (0..3)
                .map(|i| Job::new(i, i as u64 * 2, dag.clone()))
                .collect(),
        )
    }

    #[test]
    fn fifo_gantt_shows_jobs_and_ruler() {
        let inst = small_instance();
        let (_, t) = run_priority(&inst, &SimConfig::new(2).with_trace(), &Fifo);
        let g = render_gantt(&t.unwrap(), 0, 40);
        assert!(g.contains("P0"));
        assert!(g.contains("P1"));
        assert!(g.contains('a'), "job 0 symbol missing:\n{g}");
        assert!(g.contains("a=J0"));
        assert!(g.contains("round"));
    }

    #[test]
    fn ws_gantt_shows_steals() {
        let inst = small_instance();
        let (_, t) = run_worksteal(
            &inst,
            &SimConfig::new(3).with_trace(),
            StealPolicy::StealKFirst { k: 2 },
            5,
        );
        let g = render_gantt(&t.unwrap(), 0, 60);
        assert!(g.contains('*'), "expected steal symbols:\n{g}");
    }

    #[test]
    fn window_clamps() {
        let inst = small_instance();
        let (_, t) = run_priority(&inst, &SimConfig::new(1).with_trace(), &Fifo);
        let t = t.unwrap();
        let g = render_gantt(&t, 10_000, 20_000);
        // Degenerate window: still renders rows and legend without panic.
        assert!(g.contains("P0"));
        let g2 = render_gantt(&t, 5, 2);
        assert!(g2.contains("P0"));
    }

    #[test]
    fn symbols_cycle() {
        assert_eq!(job_symbol(0), 'a');
        assert_eq!(job_symbol(25), 'z');
        assert_eq!(job_symbol(26), 'A');
        assert_eq!(job_symbol(52), 'a');
    }
}
