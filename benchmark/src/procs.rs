//! Deployment hygiene: serving children, temporary directories, and the
//! `/proc` readings for CPU time and peak memory.
//!
//! Every child and temporary directory is owned by a guard whose `Drop`
//! kills-and-reaps or removes it, so a failing or panicking run leaves
//! nothing behind. Rust's standard library cannot catch signals, so the
//! guards also keep `out/live/<pid>.state` current; `run.sh` traps
//! INT/TERM and clears whatever that file still lists, and the next run
//! refuses to start while a listed child is alive.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where the benchmark may write, and where the serving binary is.
#[derive(Debug, Clone)]
pub struct Env {
    pub out_dir: PathBuf,
    pub serve_bin: PathBuf,
    pub clk_tck: f64,
    /// CPUs this process may use at start-up (read once: placing the
    /// process narrows what the standard library reports afterwards).
    pub host_cpus: usize,
    /// The same, when there are at least two and `taskset` exists: the
    /// CPUs processes are placed on. `None` leaves it to the scheduler.
    cpus: Option<usize>,
    state: Arc<Mutex<LiveState>>,
}

#[derive(Debug, Default)]
struct LiveState {
    path: PathBuf,
    children: Vec<u32>,
    dirs: Vec<PathBuf>,
}

impl LiveState {
    fn flush(&self) {
        if self.children.is_empty() && self.dirs.is_empty() {
            let _ = fs::remove_file(&self.path);
            return;
        }
        let mut s = String::new();
        for c in &self.children {
            s.push_str(&format!("child {c}\n"));
        }
        for d in &self.dirs {
            s.push_str(&format!("dir {}\n", d.display()));
        }
        let _ = fs::write(&self.path, s);
    }
}

fn is_live_serve(pid: u32) -> bool {
    fs::read(format!("/proc/{pid}/cmdline"))
        .map(|c| String::from_utf8_lossy(&c).contains("streamrel-serve"))
        .unwrap_or(false)
}

impl Env {
    /// Resolve directories from the environment `run.sh` sets, falling
    /// back to the build-time package directory, and clear what dead
    /// runs left. Fails if a previous run's child is still serving.
    pub fn from_env() -> Result<Env, String> {
        let bench_dir = std::env::var_os("STREAMREL_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
        let serve_bin = std::env::var_os("STREAMREL_SERVE_BIN")
            .map(PathBuf::from)
            .ok_or("STREAMREL_SERVE_BIN is not set (run through benchmark/run.sh)")?;
        if !serve_bin.is_file() {
            return Err(format!("{} is not a file", serve_bin.display()));
        }
        let clk_tck = std::env::var("STREAMREL_CLK_TCK")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100.0);
        let out_dir = bench_dir.join("out");
        let live = out_dir.join("live");
        fs::create_dir_all(&live).map_err(|e| format!("create {}: {e}", live.display()))?;
        for entry in fs::read_dir(&live).map_err(|e| e.to_string())?.flatten() {
            let text = fs::read_to_string(entry.path()).unwrap_or_default();
            let mut dirs = Vec::new();
            for line in text.lines() {
                match line.split_once(' ') {
                    Some(("child", pid)) => {
                        let pid: u32 = pid.parse().unwrap_or(0);
                        if pid != 0 && is_live_serve(pid) {
                            return Err(format!(
                                "a previous run's streamrel-serve (pid {pid}) is still alive; \
                                 kill it and remove {}",
                                entry.path().display()
                            ));
                        }
                    }
                    Some(("dir", d)) => dirs.push(PathBuf::from(d)),
                    _ => {}
                }
            }
            for d in dirs {
                let _ = fs::remove_dir_all(d);
            }
            let _ = fs::remove_file(entry.path());
        }
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpus = Some(host_cpus).filter(|n| *n >= 2).filter(|_| {
            Command::new("taskset")
                .arg("--version")
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success())
        });
        Ok(Env {
            host_cpus,
            cpus,
            state: Arc::new(Mutex::new(LiveState {
                path: live.join(format!("{}.state", std::process::id())),
                ..LiveState::default()
            })),
            out_dir,
            serve_bin,
            clk_tck,
        })
    }

    fn with_state(&self, f: impl FnOnce(&mut LiveState)) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut st);
        st.flush();
    }

    /// A fresh directory under `out/tmp`, removed when the guard drops.
    pub fn temp_dir(&self, tag: &str) -> Result<TempDir, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.out_dir.join("tmp").join(format!(
            "{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        self.with_state(|s| s.dirs.push(path.clone()));
        Ok(TempDir {
            path,
            env: self.clone(),
        })
    }

    /// Confine this process (all threads, and those they start later) to
    /// every CPU but the last when the deployment has a serving child,
    /// which `spawn_serve` puts on the last; to all CPUs otherwise.
    ///
    /// Unplaced, the scheduler flips between two placements of the six
    /// threads a child deployment keeps busy — measured on one commit:
    /// 950 and 1600 ticks/s on `bridged_rollup`, for seconds at a time —
    /// and no median steadies a bimodal figure.
    pub fn place_self(&self, with_child: bool) {
        let Some(n) = self.cpus else { return };
        let list = format!("0-{}", if with_child { n - 2 } else { n - 1 });
        let _ = Command::new("taskset")
            .args(["-a", "-cp", &list, &std::process::id().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
    }

    /// Spawn `streamrel-serve --memory` on an OS-assigned port.
    pub fn spawn_serve(&self) -> Result<ServeChild, String> {
        let mut cmd = match self.cpus {
            Some(n) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &(n - 1).to_string()]).arg(&self.serve_bin);
                c
            }
            None => Command::new(&self.serve_bin),
        };
        let child = cmd
            .args(["--memory", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.serve_bin.display()))?;
        let pid = child.id();
        self.with_state(|s| s.children.push(pid));
        let mut guard = ServeChild {
            child,
            addr: String::new(),
            stdout: None,
            env: self.clone(),
        };
        let mut lines = BufReader::new(guard.child.stdout.take().ok_or("child stdout missing")?);
        let mut line = String::new();
        loop {
            line.clear();
            let n = lines.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("streamrel-serve exited before printing PORT=".into());
            }
            if let Some(port) = line.trim().strip_prefix("PORT=") {
                guard.addr = format!("127.0.0.1:{port}");
                break;
            }
        }
        // Keep the pipe open: a server writing to a closed stdout dies.
        guard.stdout = Some(lines);
        Ok(guard)
    }
}

pub struct TempDir {
    path: PathBuf,
    env: Env,
}

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        self.env.with_state(|s| s.dirs.retain(|d| d != &self.path));
    }
}

/// A serving child; killed and reaped on drop.
pub struct ServeChild {
    child: Child,
    addr: String,
    stdout: Option<BufReader<std::process::ChildStdout>>,
    env: Env,
}

impl ServeChild {
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stdout = None;
        let pid = self.child.id();
        self.env.with_state(|s| s.children.retain(|c| *c != pid));
    }
}

/// User + system CPU ticks of a process (all its threads, live or
/// joined), from `/proc/<pid>/stat`.
fn cpu_ticks(pid: u32) -> u64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // The command name may hold spaces; fields resume after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let get = |i: usize| {
        f.get(i - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    get(14) + get(15)
}

/// Peak resident set of a process in MB (`VmHWM`).
fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds consumed so far by this process and the given children.
pub fn cpu_seconds(env: &Env, children: &[u32]) -> f64 {
    let ticks: u64 = std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .map(cpu_ticks)
        .sum();
    ticks as f64 / env.clk_tck
}

/// Summed peak resident set of this process and the given children.
pub fn peak_rss_sum_mb(children: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .map(peak_rss_mb)
        .sum()
}
