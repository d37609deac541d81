//! `rbench --smoke` (2 s per run): every workload prints every metric of
//! BENCHMARK.json exactly once, with its declared unit and a finite value,
//! untraced and traced, and ends each run with the driver's JSON line.

use std::collections::HashMap;
use std::process::Command;

use robustore_benchmark::spec;

#[test]
fn smoke_run_prints_every_metric_once_with_its_unit() {
    let out = Command::new(env!("CARGO_BIN_EXE_rbench"))
        .arg("--smoke")
        .output()
        .expect("rbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut seen: HashMap<(String, String), (f64, String)> = HashMap::new();
    let mut results = 0;
    for line in stdout.lines() {
        if line.starts_with('{') {
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(
                line.contains("\"failed\": 0, \"metrics\": {") && line.ends_with("}}"),
                "{line}"
            );
            results += 1;
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        let ["metric", workload, name, value, unit] = fields[..] else {
            panic!("unexpected line: {line}");
        };
        let value: f64 = value.parse().expect("a number");
        let again = seen.insert((workload.into(), name.into()), (value, unit.into()));
        assert!(again.is_none(), "{workload} prints {name} twice");
    }
    assert_eq!(results, 2 * spec::WORKLOADS.len(), "one JSON line per run");
    let declared = spec::END_TO_END.iter().map(|m| (m.0, m.1));
    let declared: Vec<(&str, &str)> = declared
        .chain(spec::PER_LAYER.iter().map(|m| (m.0, m.1)))
        .collect();
    assert_eq!(
        seen.len(),
        declared.len() * spec::WORKLOADS.len(),
        "no undeclared metric"
    );
    for (workload, _) in spec::WORKLOADS {
        for (name, unit) in &declared {
            let (value, printed_unit) = seen
                .get(&(workload.to_string(), name.to_string()))
                .unwrap_or_else(|| panic!("{workload} does not print {name}"));
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert_eq!(printed_unit, unit, "{workload} {name}");
        }
    }
}
