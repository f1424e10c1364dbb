//! The served system under test: `datacomp serve --workers 1` as a
//! child process, its `/proc` accounting, and the CPU pin both
//! processes share.

use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to publish its address.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Words of a kernel `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Pins the calling process to the last CPU of its allowed set, so the
/// load thread and the daemon spawned afterwards (which inherits the
/// mask) serialise on one CPU: with them on different CPUs every round
/// trip pays two cross-CPU wake-ups, which cost more than the request,
/// and the scheduler's placement is what gets measured. Returns whether
/// the pin took; a refused pin is reported (`noise.pinned = 0`), not
/// fatal.
pub fn pin_to_last_cpu() -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return false;
    }
    let Some(last) = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
    else {
        return false;
    };
    let mut one = [0u64; CPU_SET_WORDS];
    one[last / 64] = 1u64 << (last % 64);
    // SAFETY: `one` is a readable buffer of exactly the byte size
    // passed; the kernel copies it and keeps no reference.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// A running daemon. Dropping the handle — on return, on error, or
/// while a panic unwinds — kills the child, reaps it and removes its
/// address file.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    addr_file: PathBuf,
}

impl Daemon {
    /// Spawns `bin serve --workers 1` on a free loopback port and polls
    /// the address file every millisecond until the daemon publishes
    /// where it listens. Returns the handle and the spawn-to-ready time.
    ///
    /// Fails with the tail of the daemon's log when the child exits
    /// early or publishes nothing within 30 s.
    pub fn spawn(bin: &Path, out_dir: &Path, tag: &str) -> Result<(Self, Duration), String> {
        static SERIAL: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let serial = SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Keyed by our pid: concurrent runs in one checkout never read
        // each other's address.
        let addr_file = out_dir.join(format!("{tag}.{}.{serial}.addr", std::process::id()));
        let log_path = out_dir.join(format!("{tag}.daemon.log"));
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let log_err = log
            .try_clone()
            .map_err(|e| format!("cannot clone log handle: {e}"))?;

        let start = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--workers", "1", "--seconds", "0"])
            .args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err);
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe syscall.
        unsafe {
            cmd.pre_exec(|| {
                // PR_SET_PDEATHSIG = 1, SIGKILL = 9: if the harness is
                // killed outright (no unwinding, no Drop), the kernel
                // takes the daemon down with it.
                prctl(1, 9usize);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start daemon {}: {e}", bin.display()))?;
        // From here on the handle owns the child: every early return
        // below drops it, which kills and reaps.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            addr_file,
        };
        loop {
            if let Some(addr) = std::fs::read_to_string(&daemon.addr_file)
                .ok()
                .and_then(|body| parse_addr_file(&body))
            {
                daemon.addr = addr;
                return Ok((daemon, start.elapsed()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon exited ({status}) before publishing an address; log tail:\n{}",
                    log_tail(&log_path)
                ));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(format!(
                    "daemon published no address within {} s; log tail:\n{}",
                    READY_TIMEOUT.as_secs(),
                    log_tail(&log_path)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// CPU time the daemon has run, summed over its threads. Read at
    /// pass boundaries, when the daemon is blocked in `read` and its
    /// counters are settled.
    pub fn cpu_ns(&self) -> u64 {
        let pid = self.child.id();
        let mut total = 0u64;
        let mut seen = false;
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                let run = std::fs::read_to_string(task.path().join("schedstat"))
                    .ok()
                    .and_then(|s| parse_schedstat_run_ns(&s));
                if let Some(ns) = run {
                    total += ns;
                    seen = true;
                }
            }
        }
        if seen {
            return total;
        }
        // Kernels without scheduler statistics: fall back to the
        // tick-granular utime + stime.
        std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| parse_stat_cpu_ticks(&s))
            .map_or(0, |ticks| ticks * (1_000_000_000 / CLOCK_TICKS_PER_S))
    }

    /// Peak resident set of the daemon in kB (`VmHWM`).
    pub fn vm_hwm_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| parse_status_vm_hwm_kb(&s))
            .unwrap_or(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.addr_file);
    }
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times; 100 on every Linux
/// ABI.
const CLOCK_TICKS_PER_S: u64 = 100;

/// First line of the daemon's address file, once it is complete.
fn parse_addr_file(body: &str) -> Option<SocketAddr> {
    // The daemon writes both lines at once, but a reader can still see
    // the file between create and write: demand the trailing newline.
    if !body.ends_with('\n') {
        return None;
    }
    body.lines().next()?.trim().parse().ok()
}

/// `run_ns wait_ns timeslices` → `run_ns`.
fn parse_schedstat_run_ns(s: &str) -> Option<u64> {
    let mut fields = s.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(run)
}

/// `utime + stime` (fields 14 and 15) of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat_cpu_ticks(s: &str) -> Option<u64> {
    let rest = &s[s.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM:` line of `/proc/<pid>/status`, in kB.
fn parse_status_vm_hwm_kb(s: &str) -> Option<u64> {
    let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_ascii_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb)
}

fn log_tail(path: &Path) -> String {
    let body = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = body.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_first_field() {
        assert_eq!(
            parse_schedstat_run_ns("48123456 1200 37\n"),
            Some(48_123_456)
        );
        assert_eq!(parse_schedstat_run_ns("0 0 0"), Some(0));
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("12"), None);
        assert_eq!(parse_schedstat_run_ns("abc 1 2"), None);
    }

    #[test]
    fn stat_counts_fields_after_the_command_name() {
        let plain = "4242 (datacomp) S 1 4242 4242 0 -1 4194304 310 0 0 0 \
                     57 13 0 0 20 0 5 0 123456 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(57 + 13));
        // A hostile command name with spaces and a closing parenthesis.
        let tricky = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 9 4 0 0 20 0 1 0 5 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(tricky), Some(13));
        assert_eq!(parse_stat_cpu_ticks("7 (short) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_finds_vm_hwm_in_kb() {
        let status =
            "Name:\tdatacomp\nVmPeak:\t  200000 kB\nVmHWM:\t  158720 kB\nVmRSS:\t  150000 kB\n";
        assert_eq!(parse_status_vm_hwm_kb(status), Some(158_720));
        assert_eq!(parse_status_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_status_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_status_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn addr_file_needs_a_complete_first_line() {
        let want: SocketAddr = "127.0.0.1:4100".parse().unwrap();
        assert_eq!(
            parse_addr_file("127.0.0.1:4100\n127.0.0.1:4101\n"),
            Some(want)
        );
        assert_eq!(parse_addr_file("127.0.0.1:41"), None);
        assert_eq!(parse_addr_file(""), None);
        assert_eq!(parse_addr_file("garbage\n"), None);
    }
}
