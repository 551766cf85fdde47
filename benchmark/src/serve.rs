//! The system under test as a child process: boot the shipped `serve`
//! binary, time it to its first healthy answer, read its peak memory, and
//! stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;

/// What `serve` is booted with.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Corpus scale.
    pub scale: f64,
    /// Corpus seed.
    pub seed: u64,
    /// Fig. 4 replicates per model and cuisine, for boot and registry
    /// builds alike.
    pub replicates: usize,
}

impl ServeSpec {
    /// The command line shared by the child process and the in-process
    /// reference build.
    pub fn args(&self) -> Vec<String> {
        [
            "--scale".to_string(),
            self.scale.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--replicates".to_string(),
            self.replicates.to_string(),
            "--port".to_string(),
            "0".to_string(),
        ]
        .to_vec()
    }
}

/// A running `serve` child. Dropping it kills the process and reaps it.
pub struct ServeProcess {
    child: Child,
    /// Read for the listen address, then held open so the server never
    /// writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn to the first `200` from `/healthz`.
    pub setup_s: f64,
}

impl ServeProcess {
    /// Spawn `serve` and wait until `/healthz` answers `200`.
    pub fn boot(bin: &Path, spec: &ServeSpec) -> Result<ServeProcess, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(spec.args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve stdout was not captured".into());
        };
        let mut process = ServeProcess {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        process.addr = process.read_listen_addr()?;
        process.wait_healthy(Duration::from_secs(30))?;
        process.setup_s = started.elapsed().as_secs_f64();
        Ok(process)
    }

    /// The server announces `listening on http://ADDR` on stdout once the
    /// snapshot build is done and the socket is bound.
    fn read_listen_addr(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let read = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if read == 0 {
                let status = self.child.wait().map_err(|e| e.to_string())?;
                return Err(format!("serve exited before listening ({status})"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on http://") {
                return addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"));
            }
        }
    }

    fn wait_healthy(&self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            let status = Conn::open(self.addr)
                .and_then(|mut conn| conn.call("GET", "/healthz", b"").map(|reply| reply.status));
            if let Ok(200) = status {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("/healthz never answered 200 (last: {status:?})"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
