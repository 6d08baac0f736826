//! Reference values of the simulated statistics, recorded once with
//! `perfbench record <workload>` and committed under `perfbench/reference/`.
//!
//! A file holds one line per input, `key value...`, every value a `u64`
//! written in hex (f64 statistics as their bit patterns). A speed-only
//! change to the program must reproduce every line bit for bit.

use std::collections::HashMap;
use std::path::PathBuf;

/// Where the reference of `workload` lives, relative to the checkout.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(format!("perfbench/reference/{workload}.txt"))
}

/// A loaded reference table.
#[derive(Debug, Default)]
pub struct Reference {
    rows: HashMap<String, Vec<u64>>,
}

impl Reference {
    /// Load the reference of `workload`.
    pub fn load(workload: &str) -> Result<Self, String> {
        let p = path(workload);
        let text = std::fs::read_to_string(&p)
            .map_err(|e| format!("cannot read reference {}: {e}", p.display()))?;
        let mut rows = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let mut it = line.split_whitespace();
            let key = it.next().expect("non-empty line").to_string();
            let vals = it
                .map(|v| u64::from_str_radix(v, 16))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("bad reference line {line:?}: {e}"))?;
            rows.insert(key, vals);
        }
        Ok(Self { rows })
    }

    /// The recorded values for `key`.
    pub fn get(&self, key: &str) -> Option<&[u64]> {
        self.rows.get(key).map(Vec::as_slice)
    }
}

/// One reference line.
pub fn line(key: &str, vals: &[u64]) -> String {
    let vals: Vec<String> = vals.iter().map(|v| format!("{v:016x}")).collect();
    format!("{key} {}", vals.join(" "))
}

/// Write a reference file with a comment header.
pub fn write(workload: &str, header: &str, lines: &[String]) -> std::io::Result<()> {
    let p = path(workload);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for h in header.lines() {
        text.push_str("# ");
        text.push_str(h);
        text.push('\n');
    }
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(p, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips_through_the_parser() {
        let l = line("StaticCaps/clean", &[1.5f64.to_bits(), 7]);
        let mut it = l.split_whitespace();
        assert_eq!(it.next(), Some("StaticCaps/clean"));
        let vals: Vec<u64> = it.map(|v| u64::from_str_radix(v, 16).unwrap()).collect();
        assert_eq!(vals, vec![1.5f64.to_bits(), 7]);
    }
}
