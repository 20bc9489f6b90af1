//! Per-thread CPU accounting from `/proc/self/task/*/schedstat`
//! (nanosecond run time), so the system's threads can be charged apart
//! from the benchmark's own generator and observer threads.

use std::fs;

/// The calling thread's kernel thread id.
#[must_use]
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().and_then(|n| n.to_str()).and_then(|n| n.parse().ok()))
        .expect("/proc/thread-self names the calling thread")
}

/// CPU time of one thread of this process, in ns; `None` once it exited.
#[must_use]
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// `(tid, cpu_ns)` for every live thread of this process.
#[must_use]
pub fn all_threads() -> Vec<(u32, u64)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(|tid| Some((tid, thread_cpu_ns(tid)?)))
        .collect()
}

/// Total CPU of `threads`, leaving out the ids in `exclude`.
#[must_use]
pub fn sum_excluding(threads: &[(u32, u64)], exclude: &[u32]) -> u64 {
    threads.iter().filter(|(tid, _)| !exclude.contains(tid)).map(|&(_, ns)| ns).sum()
}

/// CPU time of every live thread except `exclude`, in ns.
#[must_use]
pub fn system_cpu_ns(exclude: &[u32]) -> u64 {
    sum_excluding(&all_threads(), exclude)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Spins until the calling thread has run `ns` more on a CPU.
    fn burn(ns: u64) -> u32 {
        let tid = current_tid();
        let start = thread_cpu_ns(tid).unwrap();
        let mut x = 0u64;
        while thread_cpu_ns(tid).unwrap() - start < ns {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        }
        tid
    }

    #[test]
    fn excluded_threads_are_not_charged() {
        let me = burn(120_000_000);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            tx.send(burn(60_000_000)).unwrap();
            // Stay alive until counted: exited threads vanish from /proc.
            std::thread::sleep(Duration::from_millis(300));
        });
        let worker_tid = rx.recv().unwrap();
        let threads = all_threads();
        let cpu_of = |tid: u32| threads.iter().find(|t| t.0 == tid).map(|t| t.1).unwrap();
        let charged = sum_excluding(&threads, &[me]);
        worker.join().unwrap();
        assert!(cpu_of(me) >= 120_000_000);
        assert!(cpu_of(worker_tid) >= 60_000_000);
        assert!(charged >= cpu_of(worker_tid), "the worker is charged");
        assert_eq!(charged + cpu_of(me), sum_excluding(&threads, &[]), "the benchmark is not");
    }

    #[test]
    fn sum_skips_excluded_ids() {
        let threads = [(1, 10), (2, 20), (3, 30)];
        assert_eq!(sum_excluding(&threads, &[2]), 40);
        assert_eq!(sum_excluding(&threads, &[]), 60);
        assert!(peak_rss_mb() > 0.0);
    }
}
