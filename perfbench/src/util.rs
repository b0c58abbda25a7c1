//! Small shared pieces: a seeded generator, order statistics, and
//! child-process handling (spawn, peak memory, reaping).

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// splitmix64: every input the benchmark sends is drawn from one of these,
/// seeded from `--seed`, before any timed interval starts.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Log-uniform in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.f64() * (hi.ln() - lo.ln())).exp()
    }

    /// A multiplicative factor in `[1/span, span]`, log-uniform.
    pub fn factor(&mut self, span: f64) -> f64 {
        self.log_uniform(1.0 / span, span)
    }
}

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile of an already sorted slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

/// Latency summary: median, p99, and how many samples lie beyond p99.
pub struct LatSummary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub beyond_p99: usize,
}

pub fn lat_summary(v: &[f64]) -> LatSummary {
    let s = sorted(v);
    LatSummary {
        n: s.len(),
        p50: quantile_sorted(&s, 0.5),
        p99: quantile_sorted(&s, 0.99),
        beyond_p99: s.len() / 100,
    }
}

/// Windows a run is split into for [`windowed_rate`].
const WINDOWS: usize = 5;

/// Work completed per second: the median over [`WINDOWS`] equal windows
/// of `[0, span_s)`, given `(completion time, units)` pairs.
pub fn windowed_rate(done: &[(f64, u64)], span_s: f64) -> f64 {
    let w = span_s / WINDOWS as f64;
    let mut per = [0u64; WINDOWS];
    for &(t, units) in done {
        per[((t / w) as usize).min(WINDOWS - 1)] += units;
    }
    median(&per.iter().map(|&u| u as f64 / w).collect::<Vec<_>>())
}

/// Host facts for the provenance record.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// A child `awesym` process whose peak RSS is read when it is reaped.
pub struct Proc {
    child: Child,
    stderr: Option<BufReader<ChildStderr>>,
    reaped: bool,
}

/// How a reaped child ended.
pub struct Exit {
    pub success: bool,
    pub peak_rss_mb: f64,
    pub stderr: String,
}

impl Proc {
    pub fn spawn(bin: &str, args: &[String], stdout: bool) -> std::io::Result<Proc> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .env_remove("AWESYM_TAPE_FMA")
            .stdin(Stdio::null())
            .stdout(if stdout {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().map(BufReader::new);
        Ok(Proc {
            child,
            stderr,
            reaped: false,
        })
    }

    /// Reads stderr until the server reports its bound address.
    pub fn wait_listening(&mut self) -> Result<SocketAddr, String> {
        let err = self.stderr.as_mut().ok_or("no stderr pipe")?;
        let mut line = String::new();
        loop {
            line.clear();
            let n = err.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                return addr.parse().map_err(|e| format!("bad address {addr}: {e}"));
            }
        }
    }

    /// Reads the child's whole stdout (for one-shot commands).
    pub fn read_stdout(&mut self) -> String {
        let mut s = String::new();
        if let Some(out) = self.child.stdout.as_mut() {
            let _ = out.read_to_string(&mut s);
        }
        s
    }

    /// Waits for the child to end and reads its peak RSS (`ru_maxrss`,
    /// the same figure as the process's final `VmHWM`).
    pub fn reap(mut self) -> Exit {
        let mut status = 0i32;
        // SAFETY: `Rusage` is plain integers, for which all-zero is valid.
        let mut ru: Rusage = unsafe { std::mem::zeroed() };
        // SAFETY: `ru` and `status` are valid for writes; the pid is our
        // own unreaped child.
        let r = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut ru) };
        self.reaped = true;
        let mut stderr = String::new();
        if let Some(mut e) = self.stderr.take() {
            let _ = e.read_to_string(&mut stderr);
        }
        Exit {
            success: r > 0 && (status & 0x7f) == 0 && ((status >> 8) & 0xff) == 0,
            peak_rss_mb: ru.maxrss as f64 / 1024.0,
            stderr,
        }
    }

    /// Waits up to `limit` for the child to exit on its own, then kills it.
    pub fn reap_within(mut self, limit: Duration) -> Exit {
        let t0 = Instant::now();
        while t0.elapsed() < limit && !proc_state_zombie(self.child.id()) {
            std::thread::sleep(Duration::from_millis(2));
        }
        if proc_state_zombie(self.child.id()) {
            return self.reap();
        }
        let _ = self.child.kill();
        let mut e = self.reap();
        e.success = false;
        e
    }
}

/// True once `pid` has exited but is not yet reaped.
fn proc_state_zombie(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|s| {
            s.rsplit(')')
                .next()
                .is_some_and(|rest| rest.trim_start().starts_with('Z'))
        })
        .unwrap_or(true)
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
