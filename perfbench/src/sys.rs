//! The few operating-system calls the load generator needs and `std`
//! lacks (`ppoll`, the timer-slack knob), plus memory and host facts.

use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::time::Duration;

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

/// `struct timespec` (both fields are `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time this process has used so far, all threads together, in
/// seconds. Time the hypervisor gives to other guests is not counted, so
/// this stays comparable on a shared host where wall time does not.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the duration of the
    // call, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

const PR_SET_TIMERSLACK: c_int = 29;

/// Wait until one of `fds` is ready or `timeout` passes. Readiness lands
/// in each entry's `revents`; an interrupted wait simply returns early.
pub fn poll(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    for f in fds.iter_mut() {
        f.revents = 0;
    }
    // SAFETY: `fds` is a valid, exclusively borrowed array of `len`
    // `pollfd`s for the duration of the call, `ts` is a live timespec, and
    // a null signal mask means "leave the mask unchanged".
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Ask the kernel to wake this thread's timed waits within 1 µs of their
/// deadline instead of the default 50 µs slack, so requests leave on
/// schedule. Best effort: a refusal only makes the generator later, and
/// lateness is reported.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run a command to completion and return its first output line.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the program's sources (`crates/**` manifests and `.rs`
/// files plus the root manifests), visited in sorted order: identifies the
/// measured code even where no git metadata exists.
fn source_hash() -> Option<String> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    Some(format!("{h:016x}"))
}

/// Host and build facts printed with every result.
pub fn fingerprint(shards: usize) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        ("shards", shards.to_string()),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
        ),
        (
            "source_fnv",
            source_hash().unwrap_or_else(|| "unknown".into()),
        ),
    ]
}
