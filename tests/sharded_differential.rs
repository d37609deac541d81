//! Differential and model-based checks of the committed state.
//!
//! Group-commit batch size and completion timing on the I/O ring may move
//! wall-clock only: for any schedule of operations the committed state is
//! the same. These properties run random serial schedules — create,
//! overwrite, in-place update, delete, read — and require the final
//! states to match in every observable dimension: file
//! listing, per-file layout and generation parity, read-back bytes (also
//! checked against an in-test model of the expected contents), and
//! per-disk byte counts. Every schedule ends in
//! [`common::check_committed_state`], an oracle built from public calls
//! alone.
//!
//! Deliberately *no* pinned layouts here: the dynamic planner reads live
//! usage, so any divergence in how two systems account bytes or route
//! writes snowballs into different layouts and fails loudly.

mod common;

use std::collections::BTreeMap;

use common::check_committed_state;
use proptest::prelude::*;
use robustore::core::{
    AccessMode, Client, InMemoryBackend, QosOptions, StoreError, System, SystemConfig,
};

const DISKS: usize = 8;

/// One step of a schedule, decoded from raw proptest integers so the
/// strategy stays shrinkable.
#[derive(Debug, Clone)]
enum Op {
    Write { file: usize, len: usize, salt: u8 },
    Update { file: usize, at: u16, salt: u8 },
    Delete { file: usize },
    Read { file: usize },
}

/// Raw schedule entry: `((kind, file), (len, salt, at))`, nested because
/// the vendored proptest implements `Strategy` for tuples up to arity 4.
type RawOp = ((usize, usize), (usize, u8, u16));

fn decode_ops(raw: &[RawOp]) -> Vec<Op> {
    raw.iter()
        .map(|&((kind, file), (len, salt, at))| match kind % 4 {
            0 => Op::Write { file, len, salt },
            1 => Op::Update { file, at, salt },
            2 => Op::Delete { file },
            _ => Op::Read { file },
        })
        .collect()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 73 + salt as usize * 151) % 256) as u8)
        .collect()
}

fn fname(file: usize) -> String {
    format!("diff-{file}")
}

fn make_system(group_commit: usize) -> System {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 12e6 + i as f64 * 7e6).collect();
    System::new(
        InMemoryBackend::new(speeds),
        SystemConfig {
            block_bytes: 4 << 10,
            group_commit,
            ..Default::default()
        },
    )
}

/// Run `ops` serially, mirroring every mutation into `model` (the
/// expected plain-bytes content per live file).
fn run_schedule(sys: &System, client: &Client, ops: &[Op], model: &mut BTreeMap<String, Vec<u8>>) {
    for op in ops {
        match *op {
            Op::Write { file, len, salt } => {
                let data = pattern(len, salt);
                let mut h = client
                    .open(&fname(file), AccessMode::Write, QosOptions::best_effort())
                    .unwrap();
                client.write(&mut h, &data).unwrap();
                client.close(h).unwrap();
                model.insert(fname(file), data);
            }
            Op::Update { file, at, salt } => {
                let Some(current) = model.get_mut(&fname(file)) else {
                    continue;
                };
                let offset = at as usize % current.len();
                let len = ((salt as usize % 96) + 1).min(current.len() - offset);
                let patch = pattern(len, salt.wrapping_add(1));
                let mut h = client
                    .open(&fname(file), AccessMode::Write, QosOptions::best_effort())
                    .unwrap();
                client.update(&mut h, offset as u64, &patch).unwrap();
                client.close(h).unwrap();
                current[offset..offset + len].copy_from_slice(&patch);
            }
            Op::Delete { file } => {
                if model.remove(&fname(file)).is_none() {
                    assert!(matches!(
                        client.delete(&fname(file)),
                        Err(StoreError::NotFound(_))
                    ));
                } else {
                    client.delete(&fname(file)).unwrap();
                }
            }
            Op::Read { file } => {
                if let Some(want) = model.get(&fname(file)) {
                    let h = client
                        .open(&fname(file), AccessMode::Read, QosOptions::best_effort())
                        .unwrap();
                    assert_eq!(&client.read(&h).unwrap(), want, "mid-schedule read");
                    client.close(h).unwrap();
                }
            }
        }
    }
    assert_eq!(sys.pool_outstanding_bytes(), 0, "schedule leaked buffers");
}

/// Everything an outside observer can see of the committed state.
type Observed = (
    Vec<String>,
    Vec<(String, Vec<(usize, Vec<u32>)>, Vec<u32>, Vec<u8>)>,
    Vec<u64>,
);

fn observe(sys: &System, client: &Client) -> Observed {
    let files = sys.list_files();
    let mut per_file = Vec::new();
    for name in &files {
        let meta = sys.export_meta(name).unwrap();
        let mut odd: Vec<u32> = meta.odd_keys.iter().copied().collect();
        odd.sort_unstable();
        let h = client
            .open(name, AccessMode::Read, QosOptions::best_effort())
            .unwrap();
        let bytes = client.read(&h).unwrap();
        client.close(h).unwrap();
        per_file.push((name.clone(), meta.layout.clone(), odd, bytes));
    }
    let used = (0..DISKS).map(|d| sys.disk_used(d)).collect();
    (files, per_file, used)
}

/// The end of every schedule: the observed state matches the plain-bytes
/// model, and the system passes the public-calls-only oracle with the
/// same contents.
fn check_against_model(sys: &System, got: &Observed, model: &BTreeMap<String, Vec<u8>>) {
    let live: Vec<String> = model.keys().cloned().collect();
    assert_eq!(got.0, live);
    for (name, _, _, bytes) in &got.1 {
        assert_eq!(bytes, model.get(name).unwrap());
    }
    assert_eq!(&check_committed_state(sys), model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Group commit batch size is invisible in the committed state: any
    /// schedule lands identically with batching off, default, and large.
    #[test]
    fn group_commit_batch_size_is_invisible(
        raw in proptest::collection::vec(
            ((0usize..4, 0usize..4), (1usize..24_000, any::<u8>(), any::<u16>())),
            1..8,
        ),
        batch in 2usize..32,
    ) {
        let ops = decode_ops(&raw);
        let mut states = Vec::new();
        for gc in [1usize, 8, batch] {
            let sys = make_system(gc);
            let client = Client::connect(&sys, sys.register_user());
            let mut model = BTreeMap::new();
            run_schedule(&sys, &client, &ops, &mut model);
            let got = observe(&sys, &client);
            check_against_model(&sys, &got, &model);
            states.push(got);
        }
        prop_assert_eq!(&states[0], &states[1]);
        prop_assert_eq!(&states[1], &states[2]);
    }

    /// The ring's contract: the decode point — and with it everything a
    /// schedule commits — depends on the schedule, never on completion
    /// timing. Two fresh systems run the same schedule on their own
    /// threads' timing and must commit identical observed state — same
    /// file listing, layouts, generation parity, read-back bytes, and
    /// per-disk byte counts — matching the model.
    #[test]
    fn same_schedule_commits_identical_state_on_fresh_systems(
        raw in proptest::collection::vec(
            ((0usize..4, 0usize..4), (1usize..24_000, any::<u8>(), any::<u16>())),
            1..10,
        ),
    ) {
        let ops = decode_ops(&raw);
        let first = make_system(8);
        let second = make_system(8);
        let client_a = Client::connect(&first, first.register_user());
        let client_b = Client::connect(&second, second.register_user());
        let mut model_a = BTreeMap::new();
        let mut model_b = BTreeMap::new();
        run_schedule(&first, &client_a, &ops, &mut model_a);
        run_schedule(&second, &client_b, &ops, &mut model_b);
        prop_assert_eq!(&model_a, &model_b);

        let got_first = observe(&first, &client_a);
        let got_second = observe(&second, &client_b);
        prop_assert_eq!(&got_first, &got_second, "completion timing leaked into committed state");

        check_against_model(&first, &got_first, &model_a);
        check_against_model(&second, &got_second, &model_b);
    }
}
