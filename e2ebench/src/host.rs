//! What the benchmark needs from its host: peak-memory accounting,
//! the C++ compiler, and the descriptor every record carries so no
//! number is read against the wrong set-up.

use ifaq_codegen::harness::{self, Cxx};
use ifaq_engine::ExecConfig;
use std::path::Path;
use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> Result<(), String> {
    reset_peak_rss_at(Path::new("/proc/self/clear_refs"))
}

/// [`reset_peak_rss`] against an explicit `clear_refs` path.
pub fn reset_peak_rss_at(path: &Path) -> Result<(), String> {
    std::fs::write(path, "5").map_err(|e| {
        format!(
            "cannot reset the peak-RSS mark through {} ({e}); train_peak_rss_mib needs a \
             Linux kernel that exposes /proc/<pid>/clear_refs",
            path.display()
        )
    })
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    peak_rss_mib_from(Path::new("/proc/self/status"))
}

/// [`peak_rss_mib`] against an explicit `status` file.
pub fn peak_rss_mib_from(path: &Path) -> Result<f64, String> {
    let status = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {} ({e})", path.display()))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {}", path.display()))?;
    Ok(kib / 1024.0)
}

/// The host C++ compiler — `IFAQ_CXX` when set, else the first of
/// `g++`, `clang++`, `c++` (the candidates `harness::find_cxx` tries) —
/// or an error that says what is missing.
pub fn require_cxx() -> Result<Cxx, String> {
    let candidates: Vec<String> = match std::env::var("IFAQ_CXX") {
        Ok(c) if !c.trim().is_empty() => vec![c],
        _ => ["g++", "clang++", "c++"].map(String::from).to_vec(),
    };
    require_cxx_among(&candidates)
}

/// [`require_cxx`] over an explicit candidate list.
pub fn require_cxx_among(candidates: &[String]) -> Result<Cxx, String> {
    harness::find_cxx_among(candidates).ok_or_else(|| {
        format!(
            "no C++ compiler answered --version (tried {}); the retailer-linreg-cpp \
             workload compiles generated code and needs one",
            candidates.join(", ")
        )
    })
}

/// First line of `cmd --version`, or `"unavailable"`.
pub fn tool_version(cmd: &str) -> String {
    Command::new(cmd)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The git revision of the checkout this benchmark was built in, or
/// `"unknown"` when it is not a git checkout (git is not asked, so it
/// cannot report an enclosing repository instead).
pub fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The set-up a record was measured on.
pub struct Descriptor {
    /// `(key, JSON value)` pairs in insertion order.
    fields: Vec<(String, String)>,
}

impl Descriptor {
    /// Host and build facts common to every workload.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, cfg: &ExecConfig) -> Self {
        let mut d = Descriptor { fields: Vec::new() };
        d.text("workload", workload);
        d.num("seed", seed as f64);
        d.num("seconds", seconds);
        d.num("trace", if trace { 1.0 } else { 0.0 });
        d.num("nproc", nproc() as f64);
        d.text("rustc", &tool_version("rustc"));
        d.text("cxx", &tool_version("g++"));
        d.text("git_rev", &git_rev());
        d.num("exec_threads", cfg.threads.get() as f64);
        d.num("exec_chunk_rows", cfg.chunk_rows as f64);
        d.text(
            "ifaq_verify",
            &format!("{:?}", ifaq_ir::verify::VerifyLevel::from_env()),
        );
        d
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), json_str(value)));
    }

    /// Adds a numeric field.
    pub fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_string(), format!("{value}")));
    }

    /// The descriptor as one JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_clear_refs_is_a_clear_error() {
        let err = reset_peak_rss_at(Path::new("/nonexistent/clear_refs")).unwrap_err();
        assert!(err.contains("/nonexistent/clear_refs"), "{err}");
        assert!(err.contains("train_peak_rss_mib"), "{err}");
        let err = peak_rss_mib_from(Path::new("/nonexistent/status")).unwrap_err();
        assert!(err.contains("/nonexistent/status"), "{err}");
    }

    #[test]
    fn missing_compiler_is_a_clear_error() {
        let err = require_cxx_among(&["/no/such/g++".to_string()]).unwrap_err();
        assert!(err.contains("/no/such/g++"), "{err}");
        assert!(err.contains("retailer-linreg-cpp"), "{err}");
    }

    #[test]
    fn peak_rss_is_read_in_mib() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let status = dir.join("status");
        std::fs::write(&status, "Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n").unwrap();
        assert_eq!(peak_rss_mib_from(&status), Ok(2.0));
        std::fs::write(&status, "Name:\tx\n").unwrap();
        assert!(peak_rss_mib_from(&status).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn descriptor_is_valid_json_shape() {
        let mut d = Descriptor { fields: Vec::new() };
        d.text("a", "x\"y");
        d.num("b", 2.5);
        assert_eq!(d.to_json(), r#"{"a":"x\"y","b":2.5}"#);
    }
}
