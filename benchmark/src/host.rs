//! What the host is and how much memory the run used: the provenance
//! block of every result, and the `peak_rss_mb` readings.

use std::process::Command;

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails (the driver's checkout is not a git
/// repository). `output()` waits for the child, so nothing is left running.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Size in bytes of the unified cache at `level` of cpu0, from sysfs.
pub fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let same_level = read_trimmed(&format!("{dir}/level"))? == level.to_string();
        let unified = read_trimmed(&format!("{dir}/type"))? == "Unified";
        if !(same_level && unified) {
            return None;
        }
        let size = read_trimmed(&format!("{dir}/size"))?;
        let (digits, scale) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1024),
            b'M' => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size.as_str(), 1),
        };
        digits.parse::<u64>().ok().map(|n| n * scale)
    })
}

/// Host and toolchain facts, as ordered key/value pairs. Spawns `git`
/// and `rustc`, so call it after the memory readings are taken: waited
/// children count towards `RUSAGE_CHILDREN`.
pub fn provenance() -> Vec<(String, String)> {
    let sha = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = match Command::new("git").args(["status", "--porcelain"]).output() {
        Ok(out) if out.status.success() => (!out.stdout.is_empty()).to_string(),
        _ => "unknown".into(),
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let cache = |level| cache_bytes(level).map_or("unknown".into(), |b| b.to_string());
    vec![
        ("git_sha".into(), sha),
        ("git_dirty".into(), dirty),
        ("rustc".into(), command_line("rustc", &["-V"])),
        ("nproc".into(), cores.to_string()),
        ("cpu_model".into(), cpu_model),
        ("l2_bytes".into(), cache(2)),
        ("l3_bytes".into(), cache(3)),
    ]
}

/// Peak resident set of this process since it started (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest resident set among the children this process has waited for
/// (`getrusage(RUSAGE_CHILDREN).ru_maxrss`), in MB — the forked ranks of
/// the distributed workload; 0 when there were none.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage { ru_utime: [0; 2], ru_stime: [0; 2], ru_maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the Linux x86-64/aarch64 ABI defines (144 bytes); getrusage writes
    // only inside it and keeps no pointer past the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
