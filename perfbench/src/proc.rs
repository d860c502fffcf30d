//! The release `uu-server` as a child process: start on ephemeral ports,
//! read the resolved addresses from its startup line, `kill -9`, and read
//! its peak resident set.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running server child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pg_addr: SocketAddr,
}

impl ServerProc {
    /// Starts `bin` on 127.0.0.1 with both fronts on ephemeral ports and
    /// durability armed on `data_dir` (`fsync` policy, checkpoint trigger in
    /// rows or the server's default); returns once it listens.
    pub fn start(
        bin: &Path,
        data_dir: &Path,
        fsync: &str,
        checkpoint_rows: Option<u64>,
    ) -> Result<ServerProc, String> {
        let mut command = Command::new(bin);
        command.args([
            "--addr",
            "127.0.0.1:0",
            "--pgwire-port",
            "0",
            "--fsync",
            fsync,
        ]);
        // One malloc arena: otherwise the peak resident set jumps by a
        // whole arena from run to run, depending on which threads happened
        // to allocate concurrently.
        command.env("MALLOC_ARENA_MAX", "1");
        command.env("MALLOC_MMAP_THRESHOLD_", "33554432");
        command.env("MALLOC_TRIM_THRESHOLD_", "1073741824");
        if let Some(rows) = checkpoint_rows {
            command.arg("--checkpoint-rows").arg(rows.to_string());
        }
        let mut child = command
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let parsed = read
            .ok()
            .filter(|n| *n > 0)
            .and_then(|_| parse_listening(&line));
        match parsed {
            Some((addr, pg_addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
                pg_addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its addresses: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// `kill -9` and reap.
    pub fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `uu-server listening on A (pgwire=B, …)` → `(A, B)`.
fn parse_listening(line: &str) -> Option<(SocketAddr, SocketAddr)> {
    let rest = line.strip_prefix("uu-server listening on ")?;
    let (addr, rest) = rest.split_once(' ')?;
    let pg = rest.strip_prefix("(pgwire=")?.split(',').next()?;
    Some((addr.parse().ok()?, pg.parse().ok()?))
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
