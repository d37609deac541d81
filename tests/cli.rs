//! End-to-end tests of the `robustore` CLI binary: a durable store
//! exercised across separate process invocations.

use std::path::{Path, PathBuf};
use std::process::Command;

use robustore::core::{
    AccessMode, Client, FileBackend, FileMeta, QosOptions, System, SystemConfig,
};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_robustore")
}

fn temp_dir(tag: &str) -> PathBuf {
    let unique = format!(
        "robustore-cli-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    );
    let p = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Run the CLI; returns its exit code (`None` if killed by a signal) and
/// its stdout followed by its stderr.
fn run_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin()).args(args).output().expect("spawn CLI");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn run(args: &[&str]) -> (bool, String) {
    let (code, text) = run_code(args);
    (code == Some(0), text)
}

/// `get name` into `dst`; the bytes on success, the CLI output on failure.
fn get(store: &str, name: &str, dst: &Path) -> Result<Vec<u8>, String> {
    match run(&[
        "--store",
        store,
        "get",
        name,
        "--out",
        dst.to_str().unwrap(),
    ]) {
        (true, _) => Ok(std::fs::read(dst).unwrap()),
        (false, out) => Err(out),
    }
}

/// A legacy sidecar as earlier versions of the CLI wrote it: v3 carries
/// `crc=` lines, v2 has none.
fn sidecar_text(m: &FileMeta, v3: bool) -> String {
    let mut out = format!("robustore-meta-v{}\n", if v3 { 3 } else { 2 });
    out.push_str(&format!("name={}\n", m.name));
    out.push_str(&format!("file_id={}\n", m.file_id));
    out.push_str(&format!("size_bytes={}\n", m.size_bytes));
    out.push_str(&format!("k={}\n", m.coding.k));
    out.push_str(&format!("n={}\n", m.coding.n));
    out.push_str(&format!("block_bytes={}\n", m.coding.block_bytes));
    out.push_str(&format!("lt_c={}\n", m.coding.params.c));
    out.push_str(&format!("lt_delta={}\n", m.coding.params.delta));
    out.push_str(&format!("seed={}\n", m.coding.seed));
    out.push_str(&format!("version={}\n", m.version));
    let odd: Vec<String> = m.odd_keys.iter().map(|i| i.to_string()).collect();
    out.push_str(&format!("odd={}\n", odd.join(",")));
    for (disk, ids) in &m.layout {
        let list: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        out.push_str(&format!("disk={}:{}\n", disk, list.join(",")));
    }
    if v3 {
        for (id, crc) in &m.checksums {
            out.push_str(&format!("crc={id}:{crc:08x}\n"));
        }
    }
    out
}

/// A store as earlier versions of the CLI left it: `init --disks 6`'s
/// speeds, the files' coded blocks under `disk-*`, and one sidecar per
/// file under `metadata/` — no metastore. Returns each file's sidecar
/// path.
fn legacy_store(store: &Path, files: &[(&str, &[u8])], v3: bool) -> Vec<PathBuf> {
    let speeds = (0..6).map(|d| 10e6 * 4f64.powf(d as f64 / 5.0)).collect();
    let system = System::with_backend(
        Box::new(FileBackend::open(store, speeds).unwrap()),
        SystemConfig {
            block_bytes: 256 << 10,
            ..Default::default()
        },
    );
    let client = Client::connect(&system, system.register_user());
    let meta_dir = store.join("metadata");
    std::fs::create_dir_all(&meta_dir).unwrap();
    files
        .iter()
        .map(|(name, data)| {
            let mut h = client
                .open(
                    name,
                    AccessMode::Write,
                    QosOptions::best_effort().with_redundancy(3.0),
                )
                .unwrap();
            client.write(&mut h, data).unwrap();
            client.close(h).unwrap();
            let path = meta_dir.join(format!("{name}.meta"));
            let text = sidecar_text(&system.export_meta(name).unwrap(), v3);
            std::fs::write(&path, text).unwrap();
            path
        })
        .collect()
}

fn sidecars_left(store: &Path) -> usize {
    std::fs::read_dir(store.join("metadata"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "meta"))
        .count()
}

#[test]
fn full_lifecycle_across_invocations() {
    let dir = temp_dir("lifecycle");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();

    let (ok, out) = run(&["--store", store_s, "init", "--disks", "6"]);
    assert!(ok, "init failed: {out}");

    // A payload with non-trivial content and a size that is not a block
    // multiple.
    let payload: Vec<u8> = (0..777_777u32).map(|i| (i % 251) as u8).collect();
    let src = dir.join("payload.bin");
    std::fs::write(&src, &payload).unwrap();

    let (ok, out) = run(&[
        "--store",
        store_s,
        "put",
        src.to_str().unwrap(),
        "--name",
        "proj/payload",
        "--redundancy",
        "2",
    ]);
    assert!(ok, "put failed: {out}");
    assert!(out.contains("coded blocks"), "{out}");

    // Listing and stat in fresh processes see the persisted metadata.
    let (ok, out) = run(&["--store", store_s, "ls"]);
    assert!(ok && out.contains("proj/payload"), "{out}");
    let (ok, out) = run(&["--store", store_s, "stat", "proj/payload"]);
    assert!(ok && out.contains("777777 bytes"), "{out}");

    // Retrieval round-trips the bytes exactly.
    let dst = dir.join("back.bin");
    let (ok, out) = run(&[
        "--store",
        store_s,
        "get",
        "proj/payload",
        "--out",
        dst.to_str().unwrap(),
    ]);
    assert!(ok, "get failed: {out}");
    assert!(out.contains("left unread"), "speculative accounting: {out}");
    assert_eq!(std::fs::read(&dst).unwrap(), payload);

    // Removal drops the file from later invocations.
    let (ok, out) = run(&["--store", store_s, "rm", "proj/payload"]);
    assert!(ok, "rm failed: {out}");
    let (ok, out) = run(&["--store", store_s, "get", "proj/payload"]);
    assert!(!ok, "get after rm should fail: {out}");
    let (ok, out) = run(&["--store", store_s, "ls"]);
    assert!(ok && !out.contains("proj/payload"), "{out}");

    // Metadata lives in the metastore's logs; nothing writes sidecars.
    assert!(store.join("meta").join("shard-0").is_dir());
    assert!(!store.join("metadata").exists());

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn get_survives_losing_disks_up_to_redundancy() {
    let dir = temp_dir("degraded");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    run(&["--store", store_s, "init", "--disks", "6"]);

    let payload = vec![0xA7u8; 500_000];
    let src = dir.join("p.bin");
    std::fs::write(&src, &payload).unwrap();
    let (ok, out) = run(&[
        "--store",
        store_s,
        "put",
        src.to_str().unwrap(),
        "--name",
        "x",
        "--redundancy",
        "3",
    ]);
    assert!(ok, "{out}");

    // Simulate a lost disk by deleting its directory contents.
    std::fs::remove_dir_all(store.join("disk-0")).unwrap();
    std::fs::create_dir_all(store.join("disk-0")).unwrap();

    let dst = dir.join("x.out");
    let (ok, out) = run(&[
        "--store",
        store_s,
        "get",
        "x",
        "--out",
        dst.to_str().unwrap(),
    ]);
    assert!(ok, "degraded get failed: {out}");
    assert_eq!(std::fs::read(&dst).unwrap(), payload);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn v2_sidecars_without_checksums_still_read_and_scrub_upgrades_them() {
    // A store written before sidecar v3 has no `crc` lines. Its first
    // open imports the sidecar into the metastore; the blocks read fine
    // but unverified, one scrub adds every digest, and a second scrub
    // finds nothing left to add.
    let dir = temp_dir("v2compat");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 241) as u8).collect();
    let sidecar = legacy_store(&store, &[("old", &payload)], false).remove(0);
    assert!(std::fs::read_to_string(&sidecar)
        .unwrap()
        .starts_with("robustore-meta-v2"));

    let dst = dir.join("old.out");
    assert_eq!(get(store_s, "old", &dst).unwrap(), payload);
    assert!(!sidecar.exists(), "an imported sidecar is removed");

    let (ok, out) = run(&["--store", store_s, "scrub"]);
    assert!(ok, "scrub failed: {out}");
    assert!(
        !out.contains(" 0 unverified"),
        "v2 blocks unverified: {out}"
    );
    assert!(!out.contains("+0 checksums"), "{out}");
    let (ok, out) = run(&["--store", store_s, "scrub"]);
    assert!(ok, "{out}");
    assert!(
        out.contains(" 0 unverified") && out.contains("+0 checksums"),
        "the first scrub's digests persist: {out}"
    );
    assert_eq!(get(store_s, "old", &dst).unwrap(), payload);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn scrub_heals_bit_rot_on_a_durable_store() {
    // Flip bytes inside block files at rest; a get without scrubbing must
    // still return correct bytes (checksums catch the rot), and a scrub
    // must restore the store so the damage stops accumulating.
    let dir = temp_dir("rot");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    run(&["--store", store_s, "init", "--disks", "6"]);

    let payload = vec![0x5Au8; 400_000];
    let src = dir.join("p.bin");
    std::fs::write(&src, &payload).unwrap();
    let (ok, out) = run(&[
        "--store",
        store_s,
        "put",
        src.to_str().unwrap(),
        "--name",
        "x",
        "--redundancy",
        "3",
    ]);
    assert!(ok, "{out}");

    // Rot every block on one disk: flip a byte in each .blk file.
    let disk = store.join("disk-2");
    let mut rotted = 0;
    for entry in std::fs::read_dir(&disk).unwrap().filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.extension().is_some_and(|x| x == "blk") {
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[0] ^= 0xFF;
            std::fs::write(&p, &bytes).unwrap();
            rotted += 1;
        }
    }
    assert!(rotted > 0, "nothing stored on disk-2");

    let dst = dir.join("x.out");
    let (ok, out) = run(&[
        "--store",
        store_s,
        "get",
        "x",
        "--out",
        dst.to_str().unwrap(),
    ]);
    assert!(ok, "rotten get failed: {out}");
    assert_eq!(std::fs::read(&dst).unwrap(), payload);

    let (ok, out) = run(&["--store", store_s, "scrub", "x"]);
    assert!(ok, "scrub failed: {out}");
    let (ok, out) = run(&[
        "--store",
        store_s,
        "get",
        "x",
        "--out",
        dst.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&dst).unwrap(), payload);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn get_drains_its_read_repair_before_exiting() {
    // A degraded read only queues its damage, and the backlog lives in
    // the process: `get` must scrub what its read queued before it
    // exits, or a one-shot CLI would never heal. A following scrub then
    // finds nothing left to restore.
    let dir = temp_dir("drain");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    run(&["--store", store_s, "init", "--disks", "8"]);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let payload: Vec<u8> = (0..1_500_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let src = dir.join("p.bin");
    std::fs::write(&src, &payload).unwrap();
    let (ok, out) = run(&[
        "--store",
        store_s,
        "put",
        src.to_str().unwrap(),
        "--name",
        "x",
    ]);
    assert!(ok, "{out}");

    // Lose the first block of every disk: a fresh write's keys ascend
    // with the coded id, and each disk serves its share in id order, so
    // whichever disks the read asks, its first block there is gone.
    for d in 0..8 {
        let mut blocks: Vec<PathBuf> = std::fs::read_dir(store.join(format!("disk-{d}")))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "blk"))
            .collect();
        blocks.sort();
        std::fs::remove_file(&blocks[0]).unwrap();
    }

    let dst = dir.join("x.out");
    let (ok, out) = run(&[
        "--store",
        store_s,
        "get",
        "x",
        "--out",
        dst.to_str().unwrap(),
    ]);
    assert!(ok, "degraded get failed: {out}");
    assert_eq!(std::fs::read(&dst).unwrap(), payload);
    assert!(
        out.contains("read-repair restored 8 damaged blocks"),
        "get did not drain its read-repair: {out}"
    );

    let (ok, out) = run(&["--store", store_s, "scrub"]);
    assert!(ok, "scrub failed: {out}");
    assert!(out.contains("0 missing) -> restored 0,"), "{out}");
    assert_eq!(get(store_s, "x", &dst).unwrap(), payload);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_command_and_missing_store_fail_cleanly() {
    let (ok, _) = run(&["--store", "/nonexistent-robustore", "frobnicate"]);
    assert!(!ok);
    let (ok, out) = run(&["--store", "/nonexistent-robustore", "ls"]);
    assert!(!ok);
    assert!(out.contains("no store"), "{out}");
}

#[test]
fn damaged_store_files_fail_cleanly_not_panic() {
    // Outside input on the open path — the store's own `speeds` file and
    // its metadata replica directories — is an error message and exit 1,
    // never a panic.
    type Damage = fn(&Path);
    let cases: [(&str, Damage, &str); 3] = [
        (
            "empty speeds",
            |s| std::fs::write(s.join("speeds"), "").unwrap(),
            "no disks listed",
        ),
        (
            "zero speed",
            |s| std::fs::write(s.join("speeds"), "10000000\n0\n").unwrap(),
            "not a positive bandwidth",
        ),
        (
            "two of three replicas unopenable",
            |s| {
                for r in 0..2 {
                    let replica = s.join("meta").join("shard-0").join(format!("replica-{r}"));
                    std::fs::remove_dir_all(&replica).unwrap();
                    std::fs::write(&replica, "not a directory").unwrap();
                }
            },
            "replica-",
        ),
    ];
    let dir = temp_dir("damaged");
    let src = dir.join("p.bin");
    std::fs::write(&src, vec![0x11u8; 50_000]).unwrap();
    for (i, (what, damage, why)) in cases.into_iter().enumerate() {
        let store = dir.join(format!("store-{i}"));
        let store_s = store.to_str().unwrap();
        let (ok, out) = run(&["--store", store_s, "init", "--disks", "4"]);
        assert!(ok, "{out}");
        let (ok, out) = run(&["--store", store_s, "put", src.to_str().unwrap()]);
        assert!(ok, "{out}");
        damage(&store);
        let (code, out) = run_code(&["--store", store_s, "ls"]);
        assert_eq!(code, Some(1), "{what}: {out}");
        assert!(out.contains("error:") && out.contains(why), "{what}: {out}");
        assert!(!out.contains("panicked"), "{what}: {out}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn torn_and_legacy_sidecars_surface_clean_errors_not_panics() {
    // Whatever state a crash or an old binary left a sidecar in — v1
    // header, half a header, a future version, a missing field, a file
    // cut mid-line, an empty file — the store must open, warn precisely
    // on every open, keep serving the healthy files, and never import the
    // damaged one. Never a panic, never a silently empty meta.
    let dir = temp_dir("torn");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let payload = vec![0x3Cu8; 200_000];
    let sidecars = legacy_store(&store, &[("good", &payload), ("victim", &payload)], true);
    let sidecar = &sidecars[1];
    let pristine = std::fs::read_to_string(sidecar).unwrap();
    assert!(pristine.starts_with("robustore-meta-v3"), "{pristine}");

    let v2: String = pristine
        .replace("robustore-meta-v3", "robustore-meta-v2")
        .lines()
        .filter(|l| !l.starts_with("crc="))
        .map(|l| format!("{l}\n"))
        .collect();
    // (mangled sidecar bytes, error text the warning must carry)
    let cases: Vec<(String, &str)> = vec![
        // v1: refused outright — its block keys would misaddress.
        (
            pristine.replace("robustore-meta-v3", "robustore-meta-v1"),
            "v1 sidecar",
        ),
        // Torn mid-header: unrecognised version string.
        (pristine[..9].to_string(), "unrecognised sidecar header"),
        // Future version: must be refused, not guessed at.
        (
            pristine.replace("robustore-meta-v3", "robustore-meta-v9"),
            "unrecognised sidecar header",
        ),
        // Truncated after a few fields: a required field is missing.
        (
            pristine.lines().take(3).map(|l| format!("{l}\n")).collect(),
            "truncated sidecar: missing",
        ),
        // A v2 sidecar cut mid-line: the torn line is named.
        (
            {
                let cut = v2.rfind('=').unwrap();
                v2[..cut].to_string()
            },
            "malformed line",
        ),
        // Zero bytes (crash before the first write hit the disk).
        (String::new(), "empty sidecar"),
    ];

    let warning = |out: &str, why: &str| {
        out.lines()
            .find(|l| l.starts_with("warning: skipping sidecar") && l.contains(why))
            .map(str::to_string)
    };
    for (bytes, why) in cases {
        std::fs::write(sidecar, &bytes).unwrap();

        // The store opens, warns about the one bad sidecar, and still
        // lists the healthy file.
        let (ok, out) = run(&["--store", store_s, "ls"]);
        assert!(ok, "ls must survive a bad sidecar ({why}): {out}");
        assert!(!out.contains("panicked"), "panic leaked ({why}): {out}");
        let first = warning(&out, why)
            .unwrap_or_else(|| panic!("expected a warning naming {why:?}: {out}"));
        let listed = |name: &str| out.lines().any(|l| l == name);
        assert!(listed("good"), "healthy file vanished ({why}): {out}");
        assert!(!listed("victim"), "untrusted meta served ({why}): {out}");

        // Reading the damaged file fails cleanly in a fresh process, which
        // warns again with the same text: nothing was imported.
        let (ok, out) = run(&[
            "--store",
            store_s,
            "get",
            "victim",
            "--out",
            dir.join("v.out").to_str().unwrap(),
        ]);
        assert!(!ok, "get of a torn-sidecar file must fail ({why}): {out}");
        assert!(!out.contains("panicked"), "panic leaked ({why}): {out}");
        assert_eq!(warning(&out, why).as_ref(), Some(&first), "({why})");
        assert!(sidecar.exists(), "an untrusted sidecar stays ({why})");

        // The healthy file still round-trips bit-exact.
        let got = get(store_s, "good", &dir.join("g.out"));
        assert_eq!(got.as_ref(), Ok(&payload), "({why})");
    }

    // Restoring the pristine sidecar restores the file: the damage was
    // never destructive, only distrusted. Its import empties `metadata/`.
    std::fs::write(sidecar, &pristine).unwrap();
    let got = get(store_s, "victim", &dir.join("v.out"));
    assert_eq!(got.as_ref(), Ok(&payload), "restored sidecar must serve");
    assert_eq!(sidecars_left(&store), 0);
    let got = get(store_s, "victim", &dir.join("v.out"));
    assert_eq!(got.as_ref(), Ok(&payload), "served from the metastore");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn stale_sidecar_loses_to_the_metastore() {
    // A name the metastore already holds was committed after any sidecar
    // for it: the sidecar is deleted unread, and the metastore's bytes
    // are served — even though the sidecar still decodes.
    let dir = temp_dir("stale");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let old = vec![0x01u8; 150_000];
    let sidecar = legacy_store(&store, &[("doc", &old)], true).remove(0);
    let stale = std::fs::read_to_string(&sidecar).unwrap();

    let new: Vec<u8> = (0..180_000u32).map(|i| (i % 239) as u8).collect();
    let src = dir.join("new.bin");
    std::fs::write(&src, &new).unwrap();
    let (ok, out) = run(&[
        "--store",
        store_s,
        "put",
        src.to_str().unwrap(),
        "--name",
        "doc",
    ]);
    assert!(ok, "{out}");
    assert!(!sidecar.exists(), "imported on open, before the put");

    std::fs::write(&sidecar, &stale).unwrap();
    assert_eq!(get(store_s, "doc", &dir.join("d.out")).unwrap(), new);
    assert!(!sidecar.exists(), "the stale sidecar is deleted");

    std::fs::remove_dir_all(dir).ok();
}
