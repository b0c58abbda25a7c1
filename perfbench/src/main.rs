//! The repository benchmark harness. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <hot_binary|compile_churn|mc_yield>
//!           --seed <n> --seconds <s> --trace <0|1> --awesym <path> --root <dir>
//! ```
//!
//! With `--trace 0` it drives the `awesym` binary as a child process and
//! prints the end-to-end metrics; with `--trace 1` it also replays the
//! same inputs in-process and prints the per-layer table. The last line
//! of standard output is the one-line JSON result. It exits non-zero
//! when any output is wrong or client and server accounting disagree.

mod check;
mod churn;
mod gen;
mod hot;
mod mc;
mod replay;
mod report;
mod serving;
mod trace;
mod util;
mod wire;

use report::Report;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `awesym` binary under test.
    pub bin: String,
    /// Checkout root (provenance and run output live under it).
    pub root: std::path::PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    Ok(Ctx {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: get("--trace")? == "1",
        bin: get("--awesym")?,
        root: get("--root")?.into(),
    })
}

/// Where the build came from and what it ran on.
fn provenance(ctx: &Ctx) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&ctx.root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    let target_cpu = std::fs::read_to_string(ctx.root.join(".cargo/config.toml"))
        .ok()
        .and_then(|t| {
            t.split("target-cpu=")
                .nth(1)
                .map(|r| r.split('"').next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| "default".into());
    format!(
        "provenance: workload={} seed={} seconds={} trace={} git_commit={} source_fingerprint={:016x} nproc={} cpu=\"{}\" profile=release target_cpu={} AWESYM_LANES={} AWESYM_TAPE_FMA=cleared",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        git,
        source_fingerprint(&ctx.root),
        util::nproc(),
        util::cpu_model(),
        target_cpu,
        std::env::var("AWESYM_LANES").unwrap_or_else(|_| "unset (default 8)".into()),
    )
}

/// FNV-1a over the workspace sources, so a report can be tied to a tree
/// even where git metadata is absent.
fn source_fingerprint(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The shipped configuration is exact mul-add arithmetic; the in-process
    // reference must use it too.
    std::env::remove_var("AWESYM_TAPE_FMA");
    let mut report = Report::default();
    report.note(&provenance(&ctx));
    let run = match ctx.workload.as_str() {
        "hot_binary" => hot::run(&ctx, &mut report),
        "compile_churn" => churn::run(&ctx, &mut report),
        "mc_yield" => mc::run(&ctx, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if ctx.trace {
        report.finish(&report::PER_LAYER);
    } else {
        report.finish(&report::END_TO_END);
    }
    if !report.correct() {
        std::process::exit(3);
    }
}
