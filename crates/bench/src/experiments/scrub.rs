//! Scrubbing experiment (`scrub`): redundancy over time with and without
//! a background scrubber, under an identical seeded fault diet.
//!
//! Not a paper figure, but the operational version of the thesis'
//! robustness argument taken one step further: erasure-coded redundancy
//! buys a *margin*, and under continuous low-grade loss (latent sector
//! errors) plus silent bit rot, that margin only survives if something
//! restores it. Two identical stores absorb the same deterministic
//! per-round damage; one runs [`RepairService::sweep`] every round (with
//! read-repair on), the other has self-healing fully off. The table tracks each store's stored-block count,
//! decodability margin, and read outcome per round: the scrubbed store
//! returns to its full target of N blocks every round and never drops a
//! read, while the control decays monotonically until reads fail
//! outright.
//!
//! Rows also land in `BENCH_scrub.json` — schema `{variant, round,
//! stored_blocks, margin, read_ok, restored, corrupt_found,
//! missing_found}` — so EXPERIMENTS.md claims are backed by data.

use robustore_core::{
    AccessMode, Client, InMemoryBackend, QosOptions, RepairService, System, SystemConfig,
};
use robustore_simkit::report::Table;
use robustore_simkit::SeedSequence;

use crate::{write_rows, Cell, MASTER_SEED};

const DISKS: usize = 8;

struct Row {
    variant: &'static str,
    round: u64,
    stored_blocks: usize,
    margin: i64,
    read_ok: bool,
    restored: usize,
    corrupt_found: usize,
    missing_found: usize,
}

fn fresh_store(block_bytes: u64, read_repair: bool) -> (System, Client) {
    let speeds: Vec<f64> = (0..DISKS).map(|i| 10e6 + i as f64 * 6e6).collect();
    let sys = System::new(
        InMemoryBackend::new(speeds),
        SystemConfig {
            block_bytes,
            read_repair,
            ..Default::default()
        },
    );
    let client = Client::connect(&sys, sys.register_user());
    (sys, client)
}

/// Run the scrubbing experiment. `--quick` (or `--trials 1`) shrinks the
/// file and round count for CI smoke runs.
pub fn scrub(trials: u64) -> String {
    let quick = trials <= 1;
    let rounds: u64 = if quick { 6 } else { 10 };
    let data_len: usize = if quick { 120_000 } else { 600_000 };
    let block_bytes: u64 = 4 << 10;
    let loss_per_round = 0.12;
    let rot_per_round = 0.08;
    let seq = SeedSequence::new(MASTER_SEED ^ 0x5C_4B);
    let data: Vec<u8> = (0..data_len).map(|i| ((i * 131 + 7) % 256) as u8).collect();

    let mut rows: Vec<Row> = Vec::new();
    let mut run_variant = |variant: &'static str, scrubbed: bool| -> (u64, u64) {
        // The control store has self-healing fully off: no scrubber and no
        // read-repair, so its redundancy can only decay. The scrubbed
        // store keeps the whole healing layer on.
        let (sys, client) = fresh_store(block_bytes, scrubbed);
        let mut h = client
            .open("victim", AccessMode::Write, QosOptions::best_effort())
            .expect("open for write");
        client.write(&mut h, &data).expect("seed write");
        client.close(h).expect("close");
        let k = sys.export_meta("victim").expect("meta").coding.k;
        let repair = RepairService::new(Client::connect(&sys, client.identity())).eager();

        let mut reads_ok = 0u64;
        let mut reads_failed = 0u64;
        for round in 0..rounds {
            // Identical damage for both variants: the schedule depends
            // only on (round, disk), never on what the scrubber did.
            for disk in 0..DISKS {
                let sub = seq.subsequence("round-damage", round * DISKS as u64 + disk as u64);
                sys.lose_blocks(disk, loss_per_round, &sub);
                sys.corrupt_blocks(disk, rot_per_round, &sub);
            }
            let (mut restored, mut corrupt_found, mut missing_found) = (0, 0, 0);
            if scrubbed {
                let sweep = repair.sweep();
                for r in &sweep.scrubbed {
                    restored += r.blocks_restored;
                    corrupt_found += r.blocks_corrupt;
                    missing_found += r.blocks_missing;
                }
                // A failed per-file scrub (past decodability) is recorded
                // as restoring nothing; the read below shows the loss.
            }
            let h = client
                .open("victim", AccessMode::Read, QosOptions::best_effort())
                .expect("open for read");
            let read_ok = match client.read(&h) {
                Ok(got) => {
                    assert_eq!(got, data, "a served read must be bit-correct");
                    true
                }
                Err(_) => false,
            };
            client.close(h).expect("close");
            if read_ok {
                reads_ok += 1;
            } else {
                reads_failed += 1;
            }
            // Physically present blocks (metadata claims the full layout
            // regardless of loss; the backend's byte count is ground
            // truth — bit-rotted blocks still occupy space, and show up
            // in the `corrupt found` column instead).
            let stored = (sys.total_used() / block_bytes) as usize;
            rows.push(Row {
                variant,
                round,
                stored_blocks: stored,
                margin: stored as i64 - k as i64,
                read_ok,
                restored,
                corrupt_found,
                missing_found,
            });
        }
        (reads_ok, reads_failed)
    };

    let (scrub_ok, scrub_failed) = run_variant("scrubbed", true);
    let (control_ok, control_failed) = run_variant("control", false);

    let mut table = Table::new(
        "Scrubbing: redundancy over time under identical seeded loss + bit rot",
        &[
            "variant",
            "round",
            "stored blocks",
            "margin (stored-K)",
            "read",
            "restored",
            "corrupt found",
            "missing found",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.variant.into(),
            r.round.to_string(),
            r.stored_blocks.to_string(),
            format!("{:+}", r.margin),
            if r.read_ok { "ok" } else { "FAILED" }.into(),
            r.restored.to_string(),
            r.corrupt_found.to_string(),
            r.missing_found.to_string(),
        ]);
    }

    let json_rows: Vec<crate::Row> = rows
        .iter()
        .map(|r| {
            vec![
                ("variant", Cell::Str(r.variant)),
                ("round", Cell::Int(r.round as i64)),
                ("stored_blocks", Cell::Int(r.stored_blocks as i64)),
                ("margin", Cell::Int(r.margin)),
                ("read_ok", Cell::Bool(r.read_ok)),
                ("restored", Cell::Int(r.restored as i64)),
                ("corrupt_found", Cell::Int(r.corrupt_found as i64)),
                ("missing_found", Cell::Int(r.missing_found as i64)),
            ]
        })
        .collect();
    let json_note = write_rows("BENCH_scrub.json", quick, None, &json_rows);

    let mut out = table.render();
    out.push_str(&format!(
        "\nScrubbed store: {scrub_ok}/{rounds} reads served ({scrub_failed} failed). \
         Control: {control_ok}/{rounds} served ({control_failed} failed).\n\
         Both stores absorb the same seeded damage each round \
         (~{loss}% of blocks lost, ~{rot}% bit-rotted per disk). The scrubber re-verifies \
         every block, re-encodes the damage from the decoded data, and restores the file \
         to its full N-block target, so its margin saw-tooths back to maximum each round; \
         the control's margin only decays, and once it crosses the decodability threshold \
         its reads fail for good. {json_note}\n",
        loss = (loss_per_round * 100.0) as u32,
        rot = (rot_per_round * 100.0) as u32,
    ));
    // The experiment's own acceptance bar, kept as hard assertions so a
    // regression in scrub/read-repair cannot silently ship a green table.
    assert_eq!(scrub_failed, 0, "scrubbed store dropped a read");
    assert!(
        control_failed > 0,
        "control never decayed: fault load too weak to demonstrate scrubbing"
    );
    out
}
