//! Diagnostics: one [`Finding`] per violation, rendered human-readable
//! (`file:line: rule: message`) or as machine JSON for CI artifacts.

use std::fmt::Write as _;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`L01`, `R01`, ...).
    pub rule: String,
    /// Human explanation.
    pub message: String,
    /// The offending source line, trimmed; empty when unavailable.
    pub excerpt: String,
}

impl Finding {
    /// Creates a finding without an excerpt (attached later from source).
    pub fn new(file: &str, line: u32, rule: &str, message: impl Into<String>) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message: message.into(),
            excerpt: String::new(),
        }
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Pragmas that suppressed at least one finding.
    pub suppressions_used: usize,
    /// Wall time per analysis pass, in run order — the CI budget check
    /// reads these out of the JSON artifact.
    pub timings_ms: Vec<(String, f64)>,
}

impl Report {
    /// Whether the run is clean (gates CI: clean == exit 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering, one line per finding plus a summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
            if !f.excerpt.is_empty() {
                let _ = writeln!(out, "    {}", f.excerpt);
            }
        }
        let _ = writeln!(
            out,
            "flexilint: {} file(s) scanned, {} finding(s), {} suppression(s) honoured",
            self.files_scanned,
            self.findings.len(),
            self.suppressions_used
        );
        out
    }

    /// GitHub Actions problem-matcher rendering: one `::error` workflow
    /// command per finding (annotates the PR diff), plus a `::notice`
    /// summary. Values are escaped per the workflow-command rules.
    pub fn github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "::error file={},line={},title=flexilint {}::{}",
                gh_property(&f.file),
                f.line,
                gh_property(&f.rule),
                gh_data(&f.message)
            );
        }
        let _ = writeln!(
            out,
            "::notice title=flexilint::{} file(s) scanned, {} finding(s), \
             {} suppression(s) honoured",
            self.files_scanned,
            self.findings.len(),
            self.suppressions_used
        );
        out
    }

    /// JSON rendering (hand-rolled: the lint is dependency-free).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \
                 \"message\": {}, \"excerpt\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.rule),
                json_str(&f.message),
                json_str(&f.excerpt),
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"files_scanned\": {},\n  \"suppressions_used\": {},\n  \"timings_ms\": {{",
            self.files_scanned, self.suppressions_used,
        );
        for (i, (pass, ms)) in self.timings_ms.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {ms:.2}", json_str(pass));
        }
        let _ = write!(out, "}},\n  \"clean\": {}\n}}\n", self.is_clean());
        out
    }
}

/// Escapes a workflow-command data value (the part after `::`).
fn gh_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property value (`file=`, `title=`): data
/// escapes plus the property delimiters.
fn gh_property(s: &str) -> String {
    gh_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn report_renders_both_shapes() {
        let mut r = Report {
            files_scanned: 2,
            ..Default::default()
        };
        r.findings
            .push(Finding::new("a.rs", 3, "Z02", "payload copy"));
        assert!(r.human().contains("a.rs:3: Z02: payload copy"));
        assert!(r.json().contains("\"rule\": \"Z02\""));
        assert!(r.json().contains("\"clean\": false"));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_carries_per_pass_timings() {
        let r = Report {
            files_scanned: 1,
            timings_ms: vec![("graph".into(), 1.25), ("taint".into(), 0.5)],
            ..Default::default()
        };
        let j = r.json();
        assert!(
            j.contains("\"timings_ms\": {\"graph\": 1.25, \"taint\": 0.50}"),
            "{j}"
        );
    }

    #[test]
    fn github_format_emits_error_commands_with_escapes() {
        let mut r = Report {
            files_scanned: 1,
            ..Default::default()
        };
        r.findings.push(Finding::new(
            "a.rs",
            3,
            "L01",
            "cycle: `x` -> `y`\nand back",
        ));
        let gh = r.github();
        assert!(
            gh.contains(
                "::error file=a.rs,line=3,title=flexilint L01::cycle: `x` -> `y`%0Aand back"
            ),
            "{gh}"
        );
        assert!(gh.contains("::notice title=flexilint::1 file(s) scanned"));
    }
}
