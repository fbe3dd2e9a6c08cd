//! Experiment output plumbing: print tables and optionally persist them as
//! CSV so figures can be re-plotted without re-running simulations.

use parflow_metrics::Table;
use std::io;
use std::path::{Path, PathBuf};

/// Prints experiment tables and, when a directory is configured, writes
/// each one to `<dir>/<name>.csv`.
#[derive(Clone, Debug, Default)]
pub struct Reporter {
    csv_dir: Option<PathBuf>,
}

impl Reporter {
    /// A reporter that only prints.
    pub fn stdout_only() -> Self {
        Reporter::default()
    }

    /// A reporter that also writes CSVs into `dir` (created if missing).
    pub fn with_csv_dir<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Reporter {
            csv_dir: Some(dir.as_ref().to_path_buf()),
        })
    }

    /// Print the table (rendered) and persist it if configured. Returns the
    /// CSV path when one was written.
    pub fn emit(&self, name: &str, table: &Table) -> io::Result<Option<PathBuf>> {
        println!("{}", table.render());
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv())?;
            println!("(csv written to {})", path.display());
            return Ok(Some(path));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        t.row(["3", "4"]);
        t
    }

    #[test]
    fn stdout_only_writes_nothing() {
        let r = Reporter::stdout_only();
        assert_eq!(r.emit("x", &sample_table()).unwrap(), None);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("parflow_reporter_test");
        let r = Reporter::with_csv_dir(&dir).unwrap();
        let path = r.emit("sample", &sample_table()).unwrap().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn nested_dir_created() {
        let dir = std::env::temp_dir().join("parflow_reporter_test/nested/deep");
        let r = Reporter::with_csv_dir(&dir).unwrap();
        let path = r.emit("t", &sample_table()).unwrap().unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }
}
