//! The committed `BENCHMARK.json` is exactly what the harness's tables
//! generate, and those tables respect the benchmark contract's limits.

use robustore_benchmark::spec;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `rbench --emit-spec`"
    );
    assert!(committed.len() <= 64 << 10);
}

#[test]
fn names_units_and_bounds_respect_the_contract() {
    let e2e = spec::END_TO_END.iter().map(|m| (m.0, m.1));
    let names: Vec<(&str, &str)> = e2e
        .chain(spec::PER_LAYER.iter().map(|m| (m.0, m.1)))
        .collect();
    for (i, (name, unit)) in names.iter().enumerate() {
        assert!(well_formed(name), "{name}");
        assert!(
            !names[..i].iter().any(|(n, _)| n == name),
            "{name} is used twice"
        );
        let unit_ok = unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(unit_ok, "{name} has unit {unit}");
    }
    for (name, why) in spec::WORKLOADS {
        assert!(
            well_formed(name) && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
    assert!(spec::END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.1, setup.2), ("s", "lower"));
    let widest = spec::END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
    assert_eq!(setup.3, widest, "setup_s gets the largest bound");
    assert!((1..=60).contains(&spec::RUN_SECONDS));
}
