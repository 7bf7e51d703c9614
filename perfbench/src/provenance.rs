//! Where a result came from: host cores and threads, CPU features, compiler,
//! last-level cache, and the process's peak resident memory.

use std::path::Path;

/// The host facts printed at the head of every run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Hardware threads the host exposes to this process.
    pub cores: usize,
    /// Threads the benchmark's pool runs with (never more than `cores`).
    pub threads: usize,
    /// `(feature, detected)` for the SIMD features the kernels can use.
    pub cpu_features: Vec<(&'static str, bool)>,
    /// `rustc --version`.
    pub rustc: String,
    /// `(level, bytes)` of the largest cache level sysfs reports.
    pub llc: Option<(u32, u64)>,
}

impl Provenance {
    /// Collect the facts for a run with `threads` pool threads.
    pub fn collect(threads: usize) -> Self {
        Self {
            cores: host_cores(),
            threads,
            cpu_features: cpu_features(),
            rustc: sketch_obs::rustc_version(),
            llc: last_level_cache(Path::new("/sys/devices/system/cpu/cpu0/cache")),
        }
    }

    /// The header lines, one fact per line.
    pub fn lines(&self, seed: u64) -> Vec<String> {
        let features: Vec<String> = self
            .cpu_features
            .iter()
            .map(|(name, on)| format!("{name}={}", if *on { "yes" } else { "no" }))
            .collect();
        let llc = match self.llc {
            Some((level, bytes)) => format!("L{level} {bytes} bytes"),
            None => "unknown".to_string(),
        };
        vec![
            format!(
                "provenance cores={} threads_used={}",
                self.cores, self.threads
            ),
            format!("provenance cpu_features {}", features.join(" ")),
            format!("provenance rustc={}", self.rustc),
            format!("provenance llc={llc}"),
            format!("provenance seed={seed}"),
        ]
    }

    /// One line comparing a workload's working set with the last-level cache.
    pub fn working_set_line(&self, workload: &str, bytes: u64) -> String {
        match self.llc {
            Some((_, llc)) => format!(
                "provenance working_set {workload} bytes={bytes} llc_bytes={llc} ratio={:.2}",
                bytes as f64 / llc as f64
            ),
            None => format!("provenance working_set {workload} bytes={bytes} llc_bytes=unknown"),
        }
    }
}

/// Hardware threads available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        vec![("avx2", false), ("fma", false), ("avx512f", false)]
    }
}

/// The largest cache level under a sysfs `cache` directory (`index*/level`
/// and `index*/size`).
fn last_level_cache(cache_dir: &Path) -> Option<(u32, u64)> {
    let entries = std::fs::read_dir(cache_dir).ok()?;
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|e| {
            let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
            let level = read("level")?.trim().parse::<u32>().ok()?;
            let bytes = parse_cache_size(&read("size")?)?;
            Some((level, bytes))
        })
        .max()
}

/// Parse a sysfs cache size such as `32K`, `1M` or `1024`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// Reset this process's peak resident memory (`VmHWM`) to its current
/// resident memory, so a later [`peak_rss_mib`] covers only what ran since.
/// Linux's `clear_refs` takes `5` for exactly this.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident memory of this process since it started or since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
