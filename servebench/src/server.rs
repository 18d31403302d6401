//! `lddp-cli serve` as a child process: start it on a free loopback
//! port, read its CPU time and peak RSS from `/proc/<pid>`, drain it.

use crate::client::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listening line, and to exit
/// after `POST /shutdown`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the server's stdout after the listening line.
    stdout: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin serve` with default flags (plus `--fleet`) on an
    /// ephemeral port and waits for its listening line.
    pub fn spawn(bin: &Path, fleet: bool) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if fleet {
            cmd.arg("--fleet");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            for line in lines.by_ref() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                    break;
                }
            }
            drop(tx);
            // Keep reading so the server never blocks on a full pipe.
            for _ in lines {}
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        let addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "server exited or timed out before listening".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address '{addr}': {e}"))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the server has used so far (all of
    /// its threads, finished ones included).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("reading /proc stat: {e}"))?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or("bad /proc stat")
        };
        Ok((ticks(11)? + ticks(12)?) as f64 / clock_ticks_per_second())
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or("no VmHWM in /proc status".into())
    }

    /// `POST /shutdown`, then waits for the drained process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked =
            Conn::connect(self.addr).and_then(|mut c| c.exchange("POST", "/shutdown", "", true));
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(h) = self.stdout.take() {
                        let _ = h.join();
                    }
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return Err("server did not exit after /shutdown".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    /// A server still running here was abandoned on an error path: stop
    /// it rather than leave it behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
    }
    /// `_SC_CLK_TCK` on Linux.
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    // SAFETY: sysconf takes an integer selector, reads no caller memory
    // and is thread-safe; an unknown selector returns -1.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}
