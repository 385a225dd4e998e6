//! Substitution-parameter files (spec §2.3.4.4 / §3.3).
//!
//! Bindings are serialized one JSON object per line into
//! `substitution_parameters/bi_<q>_param.txt` and
//! `substitution_parameters/interactive_<q>_param.txt`, mirroring the
//! official Datagen layout ("Every line of a parameter file is a
//! JSON-formatted collection of key-value pairs"). Each key is the spec
//! name a query's `query_params!` declaration gives its field, in
//! declaration order; BI 2's group-size threshold is `minCount`.
//! [`read_bi_params`] and [`read_ic_params`] read a file back, refusing
//! a malformed line with an error naming the file and the line.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use snb_bi::BiParams;
use snb_core::bytes::Malformed;
use snb_core::SnbResult;
use snb_interactive::IcParams;

/// `substitution_parameters/<workload>_<query>_param.txt` under `root`.
fn param_file(root: &Path, workload: &str, query: u8) -> PathBuf {
    root.join("substitution_parameters").join(format!("{workload}_{query}_param.txt"))
}

fn write_lines(path: &Path, lines: impl Iterator<Item = String>) -> SnbResult<String> {
    let mut f = std::io::BufWriter::new(fs::File::create(path)?);
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()?;
    Ok(path.file_name().expect("a parameter file name").to_string_lossy().into_owned())
}

/// Writes the substitution-parameter directory for a store: one file
/// per query template.
pub fn write_substitution_files(
    gen: &crate::ParamGen<'_>,
    per_query: usize,
    root: &Path,
) -> SnbResult<Vec<String>> {
    fs::create_dir_all(root.join("substitution_parameters"))?;
    let mut written = Vec::new();
    for q in 1..=25u8 {
        let lines = gen.bi_params(q, per_query).into_iter().map(|p| p.to_json());
        written.push(write_lines(&param_file(root, "bi", q), lines)?);
    }
    for q in 1..=14u8 {
        let lines = gen.ic_params(q, per_query).into_iter().map(|p| p.to_json());
        written.push(write_lines(&param_file(root, "interactive", q), lines)?);
    }
    Ok(written)
}

fn read_lines<T>(path: &Path, read: impl Fn(&str) -> Result<T, Malformed>) -> SnbResult<Vec<T>> {
    let text = fs::read_to_string(path)?;
    let lines = text.lines().enumerate();
    lines
        .map(|(i, line)| read(line).map_err(|e| e.at(format!("{}:{}", path.display(), i + 1))))
        .collect()
}

/// Reads BI query `query`'s substitution file under `root`.
pub fn read_bi_params(root: &Path, query: u8) -> SnbResult<Vec<BiParams>> {
    read_lines(&param_file(root, "bi", query), |line| BiParams::from_json(query, line))
}

/// Reads IC query `query`'s substitution file under `root`.
pub fn read_ic_params(root: &Path, query: u8) -> SnbResult<Vec<IcParams>> {
    read_lines(&param_file(root, "interactive", query), |line| IcParams::from_json(query, line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamGen;
    use snb_bi::bi05;
    use snb_datagen::GeneratorConfig;
    use snb_store::store_for_config;

    #[test]
    fn json_escaping() {
        let p = BiParams::Q5(bi05::Params { country: "a\"b\\c\u{1}d".into() });
        let line = p.to_json();
        assert_eq!(line, r#"{"country": "a\"b\\c\u0001d"}"#);
        assert_eq!(format!("{:?}", BiParams::from_json(5, &line).unwrap()), format!("{p:?}"));
    }

    #[test]
    fn writes_39_files_with_json_lines() {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 100;
        let s = store_for_config(&c);
        let gen = ParamGen::new(&s, c.seed);
        let dir = std::env::temp_dir().join(format!("snb_params_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let files = write_substitution_files(&gen, 3, &dir).unwrap();
        assert_eq!(files.len(), 39);
        for f in &files {
            let content = fs::read_to_string(dir.join("substitution_parameters").join(f)).unwrap();
            assert!(!content.is_empty(), "{f} empty");
            for line in content.lines() {
                assert!(line.starts_with('{') && line.ends_with('}'), "{f}: {line}");
            }
        }
        // A bad line is refused with its file and line number.
        let path = param_file(&dir, "bi", 5);
        fs::write(&path, "{\"country\": \"Chile\"}\n{\"country\": 7}\n").unwrap();
        let err = read_bi_params(&dir, 5).unwrap_err().to_string();
        assert!(err.contains("bi_5_param.txt:2") && err.contains("\"country\": expected"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
