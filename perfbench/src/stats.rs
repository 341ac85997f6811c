//! Small statistics and host-information helpers.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{r}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FxHash-64 of a byte string (fingerprints of simulated results).
pub fn digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = emerald::common::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// FxHash-64 over packed pixels, as the sweep engine digests framebuffers.
pub fn fb_digest(fb: &[u32]) -> u64 {
    use std::hash::Hasher;
    let mut h = emerald::common::FxHasher::default();
    for px in fb {
        h.write_u32(*px);
    }
    h.finish()
}

/// Folds values into one fingerprint.
pub fn fold(parts: &[u64]) -> u64 {
    use std::hash::Hasher;
    let mut h = emerald::common::FxHasher::default();
    for p in parts {
        h.write_u64(*p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
