//! Dataset-pipeline integration: serialize a generated network to the
//! CsvBasic layout, bulk-load it back (§6.1.3), and verify the two
//! stores are the same bytes and indistinguishable to the query
//! workloads; a hostile dataset is refused with an error naming the
//! file and line at fault.

use std::path::{Path, PathBuf};

use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::serializer::{serialize, CsvVariant};
use ldbc_snb::datagen::{generate, GeneratorConfig, RawGraph};
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{build_store, encode_store, load_csv_basic};

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("snb_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A network generated at scale factor `sf` with `seed`, and its bulk
/// dataset serialized as CsvBasic into a fresh directory.
fn dataset(sf: &str, seed: u64, tag: &str) -> (GeneratorConfig, StaticWorld, RawGraph, PathBuf) {
    let c = GeneratorConfig::for_scale_name(sf).unwrap().with_seed(seed);
    let world = StaticWorld::build(c.seed);
    let graph = generate(&c);
    let dir = tempdir(tag);
    serialize(&graph, &world, CsvVariant::Basic, c.stream_cut(), &dir).unwrap();
    (c, world, graph, dir)
}

/// The store loaded from the CsvBasic files is valid and encodes byte
/// for byte like the generated graph built with the same cut.
fn assert_loaded_is_built(sf: &str, seed: u64) {
    let (c, world, graph, dir) = dataset(sf, seed, &format!("bytes_{sf}_{seed}"));
    let loaded = load_csv_basic(&dir, &world).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    loaded.validate_invariants().unwrap();
    let built = build_store(&graph, &world, Some(c.stream_cut()));
    assert!(
        encode_store(&loaded) == encode_store(&built),
        "SF {sf} seed {seed}: the loaded store encodes unlike the built one"
    );
}

#[test]
fn loaded_store_is_the_built_store() {
    assert_loaded_is_built("0.003", 42);
    assert_loaded_is_built("0.003", 7);
}

#[test]
#[ignore = "SF 0.01: ci.sh runs it in release"]
fn loaded_store_is_the_built_store_at_sf_0_01() {
    assert_loaded_is_built("0.01", 42);
}

/// One edit of one row of a dataset file.
enum Edit {
    /// Keep only the row's first `n` fields.
    Truncate(usize),
    /// Replace field `i` with a value.
    Set(usize, &'static str),
}

/// Applies `edit` to line `line` (1-based) of the file `name` under
/// `root/social_network`, returning the file's former contents.
fn edit_row(root: &Path, name: &str, line: usize, edit: &Edit) -> String {
    let path = root.join("social_network").join(name);
    let old = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = old.lines().map(str::to_string).collect();
    let mut fields: Vec<&str> = lines[line - 1].split('|').collect();
    match *edit {
        Edit::Truncate(n) => fields.truncate(n),
        Edit::Set(i, value) => fields[i] = value,
    }
    lines[line - 1] = fields.join("|");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    old
}

#[test]
fn hostile_csv_rows_are_refused_naming_file_and_line() {
    let (_, world, _, dir) = dataset("0.001", 531_389, "hostile");
    let absent = "999999999";
    let cases = [
        ("dynamic/person_0_0.csv", 2, Edit::Truncate(3)),
        ("dynamic/post_0_0.csv", 2, Edit::Set(0, "p17")),
        ("dynamic/person_0_0.csv", 3, Edit::Set(3, "x")),
        ("dynamic/person_0_0.csv", 4, Edit::Set(7, "Netscape")),
        ("dynamic/person_speaks_language_0_0.csv", 2, Edit::Set(1, "xx")),
        ("dynamic/comment_replyOf_post_0_0.csv", 2, Edit::Set(1, absent)),
        ("dynamic/post_hasCreator_person_0_0.csv", 2, Edit::Set(1, absent)),
        ("static/tag_0_0.csv", 2, Edit::Set(1, "Renamed")),
    ];
    for (name, line, edit) in &cases {
        let old = edit_row(&dir, name, *line, edit);
        let err = match load_csv_basic(&dir, &world) {
            Ok(_) => panic!("{name}:{line}: the edited dataset loaded"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains(&format!("{name}:{line}")), "{name}:{line}: {err}");
        std::fs::write(dir.join("social_network").join(name), old).unwrap();
    }
    load_csv_basic(&dir, &world).unwrap().validate_invariants().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_round_trip_preserves_all_query_results() {
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 90;
    let world = StaticWorld::build(c.seed);
    let graph = generate(&c);
    let cut = c.stream_cut();
    let direct = build_store(&graph, &world, Some(cut));

    let dir = tempdir("roundtrip");
    serialize(&graph, &world, CsvVariant::Basic, cut, &dir).unwrap();
    let loaded = load_csv_basic(&dir, &world).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let gen = ParamGen::new(&direct, c.seed);
    for q in ldbc_snb::driver::ALL_BI_QUERIES {
        for b in gen.bi_params(q, 2) {
            assert_eq!(
                ldbc_snb::bi::run(&direct, &b),
                ldbc_snb::bi::run(&loaded, &b),
                "BI {q} differs after CSV round trip"
            );
        }
    }
    for q in 1..=14u8 {
        for b in gen.ic_params(q, 2) {
            assert_eq!(
                ldbc_snb::interactive::run_complex(&direct, &b),
                ldbc_snb::interactive::run_complex(&loaded, &b),
                "IC {q} differs after CSV round trip"
            );
        }
    }
}

#[test]
fn all_serializer_variants_write_spec_file_counts() {
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 40;
    let world = StaticWorld::build(c.seed);
    let graph = generate(&c);
    let cut = c.stream_cut();
    let dir = tempdir("variants");
    // Spec Tables 2.13-2.16 file counts.
    for (variant, expected) in [
        (CsvVariant::Basic, 33),
        (CsvVariant::MergeForeign, 20),
        (CsvVariant::Composite, 31),
        (CsvVariant::CompositeMergeForeign, 18),
    ] {
        let files = serialize(&graph, &world, variant, cut, &dir).unwrap();
        assert_eq!(files.len(), expected, "{variant:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_stream_files_parse_back_consistently() {
    use ldbc_snb::datagen::stream::{build_update_streams, write_update_streams};
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 80;
    let world = StaticWorld::build(c.seed);
    let graph = generate(&c);
    let events = build_update_streams(&graph, c.stream_cut());
    let dir = tempdir("streams");
    write_update_streams(&events, &world, &graph, &dir).unwrap();
    let person =
        std::fs::read_to_string(dir.join("social_network/updateStream_0_0_person.csv")).unwrap();
    let forum =
        std::fs::read_to_string(dir.join("social_network/updateStream_0_0_forum.csv")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let total_lines = person.lines().count() + forum.lines().count();
    assert_eq!(total_lines, events.len());
    // Each line: t|t_d|op|..., non-decreasing t within each file.
    for content in [&person, &forum] {
        let mut last = i64::MIN;
        for line in content.lines() {
            let t: i64 = line.split('|').next().unwrap().parse().unwrap();
            assert!(t >= last);
            last = t;
        }
    }
}
