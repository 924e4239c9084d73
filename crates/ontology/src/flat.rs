//! The flat-ASCII ontology file format.
//!
//! §3.2: "All ontologies, templates, files and logs produced are flat
//! ASCII files generated by I/O Unix pipes, readable by most Unix tools
//! (operators) and human administrators."
//!
//! The format is line-oriented so `grep`/`awk`/`cut` work on it:
//!
//! ```text
//! %DOC dlsp v1
//! # free-form comment
//! %SECTION services
//! name=trades-db|type=db-oracle|status=running|port=1521
//! name=web-1|type=web|status=running|port=80
//! ```
//!
//! * a `%DOC <kind> <version>` header line;
//! * `%SECTION <name>` lines opening named record groups;
//! * one record per line: `key=value` fields joined by `|`;
//! * `#` comment lines and blank lines are ignored;
//! * `%`, `|`, `=`, and newline inside values are percent-escaped.

use std::collections::BTreeMap;
use std::fmt;

/// Errors from parsing a flat document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatError {
    /// Input did not start with a `%DOC` header.
    MissingHeader,
    /// A record line appeared before any `%SECTION`.
    RecordOutsideSection(usize),
    /// A field had no `=` separator.
    MalformedField(usize, String),
    /// A bad percent-escape sequence.
    BadEscape(usize, String),
    /// The `%DOC` line was malformed.
    MalformedHeader(String),
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatError::MissingHeader => write!(f, "missing %DOC header"),
            FlatError::RecordOutsideSection(l) => {
                write!(f, "line {l}: record outside any %SECTION")
            }
            FlatError::MalformedField(l, s) => write!(f, "line {l}: malformed field '{s}'"),
            FlatError::BadEscape(l, s) => write!(f, "line {l}: bad escape in '{s}'"),
            FlatError::MalformedHeader(s) => write!(f, "malformed %DOC header '{s}'"),
        }
    }
}

impl std::error::Error for FlatError {}

/// Percent-escape the characters that carry structure. Returns a
/// borrowed slice when nothing needs escaping (the overwhelmingly
/// common case on the DLSP hot path).
pub fn escape(s: &str) -> std::borrow::Cow<'_, str> {
    if !s
        .bytes()
        .any(|b| matches!(b, b'%' | b'|' | b'=' | b'\n' | b'\r'))
    {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '=' => out.push_str("%3D"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Reverse [`escape`].
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 3 > bytes.len() {
                return Err(s.to_string());
            }
            let hex = &s[i + 1..i + 3];
            let v = u8::from_str_radix(hex, 16).map_err(|_| s.to_string())?;
            out.push(v as char);
            i += 3;
        } else {
            // Safe: iterating ASCII-or-UTF8; push the full char.
            // qoslint::allow(no-panic, i < s.len() is the loop guard)
            let ch = s[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Ok(out)
}

/// One record: an ordered list of key→value fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatRecord {
    fields: Vec<(String, String)>,
}

impl FlatRecord {
    /// Empty record.
    pub fn new() -> Self {
        FlatRecord::default()
    }

    /// Append a field (string value).
    pub fn set(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Append a numeric field (trimmed float formatting).
    pub fn set_num(self, key: impl Into<String>, value: f64) -> Self {
        let v = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value:.4}")
        };
        self.set(key, v)
    }

    /// First value for a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a field as f64.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Parse a field as u32.
    pub fn get_u32(&self, key: &str) -> Option<u32> {
        self.get(key)?.parse().ok()
    }

    /// All values for a repeated key (e.g. `proc=` lines).
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[(String, String)] {
        &self.fields
    }

    /// Serialise to one line, rendered into a single buffer sized for
    /// the unescaped fields.
    pub fn to_line(&self) -> String {
        let len: usize = self.fields.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let mut out = String::with_capacity(len);
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&escape(k));
            out.push('=');
            out.push_str(&escape(v));
        }
        out
    }

    /// Parse one line (caller strips comments/blank lines).
    pub fn from_line(line: &str, lineno: usize) -> Result<FlatRecord, FlatError> {
        let mut rec = FlatRecord::new();
        for field in line.split('|') {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| FlatError::MalformedField(lineno, field.to_string()))?;
            let k = unescape(k).map_err(|s| FlatError::BadEscape(lineno, s))?;
            let v = unescape(v).map_err(|s| FlatError::BadEscape(lineno, s))?;
            rec.fields.push((k, v));
        }
        Ok(rec)
    }
}

/// A whole flat document: header + named sections of records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatDoc {
    /// Document kind, e.g. `dlsp`, `slkt`, `issl`, `dgspl`.
    pub kind: String,
    /// Format version.
    pub version: u32,
    /// Sections in order: (name, records).
    sections: Vec<(String, Vec<FlatRecord>)>,
}

impl FlatDoc {
    /// New empty document.
    pub fn new(kind: impl Into<String>, version: u32) -> Self {
        FlatDoc {
            kind: kind.into(),
            version,
            sections: Vec::new(),
        }
    }

    /// Append a section, returning `self` for chaining.
    pub fn with_section(mut self, name: impl Into<String>, records: Vec<FlatRecord>) -> Self {
        self.sections.push((name.into(), records));
        self
    }

    /// Records of the first section with this name.
    pub fn section(&self, name: &str) -> Option<&[FlatRecord]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.as_slice())
    }

    /// All sections in order.
    pub fn sections(&self) -> &[(String, Vec<FlatRecord>)] {
        &self.sections
    }

    /// Serialise to the ASCII lines of the file.
    pub fn to_lines(&self) -> Vec<String> {
        let records: usize = self.sections.iter().map(|(_, r)| r.len() + 1).sum();
        let mut out = Vec::with_capacity(records + 1);
        out.push(format!("%DOC {} v{}", escape(&self.kind), self.version));
        for (name, records) in &self.sections {
            out.push(format!("%SECTION {}", escape(name)));
            for r in records {
                out.push(r.to_line());
            }
        }
        out
    }

    /// Serialise to a single string with newlines.
    pub fn to_text(&self) -> String {
        self.to_lines().join("\n")
    }

    /// Parse from lines.
    pub fn parse_lines<S: AsRef<str>>(lines: &[S]) -> Result<FlatDoc, FlatError> {
        let mut iter = lines.iter().map(|s| s.as_ref()).enumerate();
        // Find the header, skipping comments/blanks.
        let (kind, version) = loop {
            let Some((lineno, line)) = iter.next() else {
                return Err(FlatError::MissingHeader);
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(rest) = line.strip_prefix("%DOC ") else {
                let _ = lineno;
                return Err(FlatError::MissingHeader);
            };
            let mut parts = rest.split_whitespace();
            let kind = parts
                .next()
                .ok_or_else(|| FlatError::MalformedHeader(line.to_string()))?;
            let ver = parts
                .next()
                .and_then(|v| v.strip_prefix('v'))
                .and_then(|v| v.parse::<u32>().ok())
                .ok_or_else(|| FlatError::MalformedHeader(line.to_string()))?;
            let kind = unescape(kind).map_err(|s| FlatError::BadEscape(lineno, s))?;
            break (kind, ver);
        };
        let mut doc = FlatDoc::new(kind, version);
        let mut current: Option<(String, Vec<FlatRecord>)> = None;
        for (lineno, line) in iter {
            // Structure detection uses the trimmed view, but record
            // bodies are parsed verbatim (minus the line ending) so
            // whitespace inside values survives the round trip.
            let line = line.strip_suffix('\r').unwrap_or(line);
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if let Some(name) = trimmed.strip_prefix("%SECTION ") {
                if let Some(sec) = current.take() {
                    doc.sections.push(sec);
                }
                let name = unescape(name.trim()).map_err(|s| FlatError::BadEscape(lineno, s))?;
                current = Some((name, Vec::new()));
            } else {
                let rec = FlatRecord::from_line(line, lineno)?;
                match &mut current {
                    Some((_, recs)) => recs.push(rec),
                    None => return Err(FlatError::RecordOutsideSection(lineno)),
                }
            }
        }
        if let Some(sec) = current.take() {
            doc.sections.push(sec);
        }
        Ok(doc)
    }

    /// Parse from a newline-joined string.
    pub fn parse_text(text: &str) -> Result<FlatDoc, FlatError> {
        let lines: Vec<&str> = text.lines().collect();
        FlatDoc::parse_lines(&lines)
    }
}

/// Helper: build a record from a string→string map (sorted key order —
/// useful for deterministic output from maps).
pub fn record_from_map(map: &BTreeMap<String, String>) -> FlatRecord {
    let mut rec = FlatRecord::new();
    for (k, v) in map {
        rec = rec.set(k.clone(), v.clone());
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        let nasty = "a|b=c%d\ne\rf";
        let esc = escape(nasty);
        assert!(!esc.contains('|') && !esc.contains('=') && !esc.contains('\n'));
        assert_eq!(unescape(&esc).unwrap(), nasty);
    }

    #[test]
    fn unescape_rejects_truncated_escape() {
        assert!(unescape("abc%2").is_err());
        assert!(unescape("abc%").is_err());
        assert!(unescape("abc%zz").is_err());
    }

    #[test]
    fn record_line_roundtrip() {
        let rec = FlatRecord::new()
            .set("name", "trades|db")
            .set("port", "1521")
            .set_num("load", 0.75)
            .set_num("cpus", 8.0);
        let line = rec.to_line();
        let back = FlatRecord::from_line(&line, 1).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.get("name"), Some("trades|db"));
        assert_eq!(back.get_num("load"), Some(0.75));
        assert_eq!(back.get_u32("cpus"), Some(8));
    }

    #[test]
    fn repeated_keys_collected_in_order() {
        let rec = FlatRecord::new()
            .set("proc", "ora_pmon:1")
            .set("proc", "ora_dbw:2")
            .set("port", "1521");
        assert_eq!(rec.get_all("proc"), vec!["ora_pmon:1", "ora_dbw:2"]);
        assert_eq!(rec.get("proc"), Some("ora_pmon:1"));
    }

    #[test]
    fn doc_roundtrip_with_sections() {
        let doc = FlatDoc::new("dlsp", 1)
            .with_section(
                "host",
                vec![FlatRecord::new()
                    .set("hostname", "db001")
                    .set("os", "Solaris")],
            )
            .with_section(
                "services",
                vec![
                    FlatRecord::new()
                        .set("name", "trades-db")
                        .set("status", "running"),
                    FlatRecord::new()
                        .set("name", "web-1")
                        .set("status", "crashed"),
                ],
            );
        let text = doc.to_text();
        let back = FlatDoc::parse_text(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.section("services").unwrap().len(), 2);
        assert!(back.section("missing").is_none());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# generated by intelliagent_status\n\n%DOC issl v1\n# servers below\n%SECTION servers\n\nhostname=db001|ip=10.0.0.1\n";
        let doc = FlatDoc::parse_text(text).unwrap();
        assert_eq!(doc.kind, "issl");
        assert_eq!(doc.section("servers").unwrap().len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(FlatDoc::parse_text(""), Err(FlatError::MissingHeader));
        assert_eq!(
            FlatDoc::parse_text("hostname=x"),
            Err(FlatError::MissingHeader)
        );
        assert!(matches!(
            FlatDoc::parse_text("%DOC issl v1\nhostname=x"),
            Err(FlatError::RecordOutsideSection(_))
        ));
        assert!(matches!(
            FlatDoc::parse_text("%DOC issl v1\n%SECTION s\nnovalue"),
            Err(FlatError::MalformedField(_, _))
        ));
        assert!(matches!(
            FlatDoc::parse_text("%DOC issl"),
            Err(FlatError::MalformedHeader(_))
        ));
    }

    #[test]
    fn grep_friendliness() {
        // The promise of the format: one record per line, so classic
        // line tools work. Simulate `grep status=crashed`.
        let doc = FlatDoc::new("dlsp", 1).with_section(
            "services",
            vec![
                FlatRecord::new().set("name", "a").set("status", "running"),
                FlatRecord::new().set("name", "b").set("status", "crashed"),
            ],
        );
        let lines = doc.to_lines();
        let hits: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("status=crashed"))
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].contains("name=b"));
    }

    #[test]
    fn record_from_sorted_map() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), "2".to_string());
        m.insert("a".to_string(), "1".to_string());
        let rec = record_from_map(&m);
        assert_eq!(rec.to_line(), "a=1|b=2");
    }
}
