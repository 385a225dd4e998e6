//! The names, units and directions of every metric the benchmark
//! prints. `BENCHMARK.json` repeats them (a test holds the two
//! together); the glossary in the README explains them.

use std::collections::BTreeMap;

use crate::json::Json;

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better }
}

/// The end-to-end metrics, each with the regression-bound *floor* the
/// issue fixed. `--calibrate` may propose a wider bound, never a
/// tighter one.
pub fn end_to_end() -> Vec<(MetricDef, f64)> {
    vec![
        (def("setup_s", "s", "lower"), 0.15),
        (def("ops_per_s", "1/s", "higher"), 0.08),
        (def("lat_p50_ms", "ms", "lower"), 0.08),
        (def("lat_tail_ms", "ms", "lower"), 0.12),
        (def("lat_geomean_ms", "ms", "lower"), 0.08),
        (def("peak_rss_mb", "MB", "lower"), 0.05),
    ]
}

/// The per-layer metrics, in glossary order. A workload reports 0 for
/// a layer it never enters.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("datagen.generate_s", "s", "lower"),
        def("datagen.nodes", "count", "higher"),
        def("datagen.edges", "count", "higher"),
        def("datagen.stream_events", "count", "higher"),
        def("store.build_s", "s", "lower"),
        def("store.stream_build_s", "s", "lower"),
        def("store.rss_after_build_mb", "MB", "lower"),
        def("store.snapshot_pin_ns", "ns", "lower"),
        def("store.apply_insert_ms", "ms", "lower"),
        def("store.apply_delete_ms", "ms", "lower"),
        def("store.publish_insert_ms", "ms", "lower"),
        def("store.publish_delete_ms", "ms", "lower"),
        def("store.image_encode_ms", "ms", "lower"),
        def("store.image_decode_ms", "ms", "lower"),
        def("store.image_mb", "MB", "lower"),
        def("params.curate_s", "s", "lower"),
        def("engine.rows_scanned", "count", "lower"),
        def("engine.edges_traversed", "count", "lower"),
        def("engine.morsels", "count", "lower"),
        def("engine.topk_pruned", "count", "higher"),
        def("engine.index_fallbacks", "count", "lower"),
        def("engine.rows_per_result", "rows", "lower"),
    ];
    m.extend((1..=25).map(|q| def(format!("bi.q{q:02}_ms"), "ms", "lower")));
    m.extend((1..=7).map(|q| def(format!("interactive.is{q}_us"), "us", "lower")));
    m.extend([
        def("server.proto_encode_request_ns", "ns", "lower"),
        def("server.proto_decode_request_ns", "ns", "lower"),
        def("server.proto_encode_response_ns", "ns", "lower"),
        def("server.proto_decode_response_ns", "ns", "lower"),
        def("server.inproc_call_us", "us", "lower"),
        def("server.tcp_call_us", "us", "lower"),
        def("server.transport_us", "us", "lower"),
        def("server.lane_wait_us", "us", "lower"),
        def("server.exec_us", "us", "lower"),
        def("server.write_ack_insert_ms", "ms", "lower"),
        def("server.write_ack_delete_ms", "ms", "lower"),
        def("server.wal_append_us", "us", "lower"),
        def("server.wal_fsyncs", "count", "lower"),
        def("server.wal_bytes_per_event", "B", "lower"),
        def("server.image_write_ms", "ms", "lower"),
        def("server.image_load_ms", "ms", "lower"),
        def("server.recover_image_ms", "ms", "lower"),
        def("server.recover_tail_ms", "ms", "lower"),
        def("server.recover_replay_ms", "ms", "lower"),
        def("server.tail_replayed", "count", "lower"),
        def("server.versions_published", "count", "lower"),
        def("server.peak_live_snapshots", "count", "lower"),
        def("server.reader_retries", "count", "lower"),
        def("server.reader_blocked", "count", "lower"),
        def("server.shed", "count", "lower"),
        def("host.sentinel_ms", "ms", "lower"),
        def("trace.overhead_share", "share", "lower"),
        def("trace.spans", "count", "lower"),
    ]);
    m
}

/// The per-layer values of one traced run: every name is present from
/// the start, so a layer the workload never enters reads 0.
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(per_layer().into_iter().map(|d| (d.name, 0.0)).collect())
    }

    /// Sets one metric; a name the registry does not hold is a bug in
    /// the workload, caught on its first traced run.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in registry order.
pub fn metrics_json(
    defs: impl IntoIterator<Item = MetricDef>,
    value: impl Fn(&str) -> f64,
) -> Json {
    Json::Obj(
        defs.into_iter()
            .map(|d| {
                let v = value(&d.name);
                let v = if d.unit == "count" && v.fract() == 0.0 && v >= 0.0 {
                    Json::Int(v as u64)
                } else {
                    Json::Num(v)
                };
                (d.name, Json::obj([("value", v), ("unit", Json::str(d.unit))]))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is what the driver reads; the registry is what
    /// the program prints. They must name the same metrics, with the
    /// same units and directions, and no bound below the issue's floor.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let listed = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        let ours = end_to_end();
        assert_eq!(listed.len(), ours.len());
        for (m, (d, floor)) in listed.iter().zip(&ours) {
            assert_eq!(field(m, "name"), d.name);
            assert_eq!(field(m, "unit"), d.unit);
            assert_eq!(field(m, "better"), d.better);
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound >= *floor && bound <= 0.25, "{}: bound {bound}", d.name);
        }

        let listed = doc.get("per_layer").and_then(Json::as_array).unwrap();
        let ours = per_layer();
        assert_eq!(listed.len(), ours.len());
        assert!(ours.len() <= 128);
        for (m, d) in listed.iter().zip(&ours) {
            assert_eq!(field(m, "name"), d.name);
            assert_eq!(field(m, "unit"), d.unit);
            assert_eq!(field(m, "better"), d.better);
        }

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
        names.extend(end_to_end().into_iter().map(|(d, _)| d.name));
        let distinct: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len());
        assert!(names
            .iter()
            .all(|n| n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
    }

    #[test]
    fn counts_print_as_integers_and_measurements_with_all_digits() {
        let out =
            metrics_json([def("a.count", "count", "lower"), def("a.time", "ms", "lower")], |n| {
                if n == "a.count" {
                    12.0
                } else {
                    1.25
                }
            });
        assert_eq!(
            out.to_string(),
            r#"{"a.count": {"value": 12, "unit": "count"}, "a.time": {"value": 1.25, "unit": "ms"}}"#
        );
    }

    #[test]
    fn layers_start_at_zero_and_reject_unknown_names() {
        let mut l = Layers::new();
        assert_eq!(l.get("bi.q18_ms"), 0.0);
        l.set("bi.q18_ms", 118.5);
        assert_eq!(l.get("bi.q18_ms"), 118.5);
        assert!(std::panic::catch_unwind(move || l.set("bi.q26_ms", 1.0)).is_err());
    }
}
