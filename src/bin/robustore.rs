//! `robustore` — a small CLI over the RobuSTore client API with durable
//! file-backed storage.
//!
//! ```text
//! robustore --store DIR init --disks N [--spread X]
//! robustore --store DIR put  <file> [--name NAME] [--redundancy D]
//! robustore --store DIR get  <name> [--out PATH]
//! robustore --store DIR rm   <name>
//! robustore --store DIR ls
//! robustore --store DIR stat <name>
//! robustore --store DIR scrub [<name>]
//! ```
//!
//! Blocks are LT-coded and spread over `N` virtual disks under `DIR`
//! (directories on one filesystem — the point is exercising the real
//! coding/metadata/planning stack end to end, not multi-machine
//! deployment). File metadata lives in the write-ahead-logged metastore
//! under `DIR/meta/` (`shard-<s>/replica-<r>/`, quorum-replicated on the
//! same filesystem). A `get` whose read found damage scrubs that file
//! before it exits (read-repair). Every `put`, `rm` and scrub follows one
//! order: coded blocks synced to their disks, then the metadata commit
//! synced to the log, then garbage collection of what it superseded — so
//! a process killed at any instant leaves each file at its old or its new
//! content, never at a name without its blocks.
//!
//! Stores written by earlier versions kept metadata as plain-text
//! sidecars under `DIR/metadata/`. Each one is imported into the
//! metastore on the next open and removed once the import has committed;
//! a name the metastore already holds wins over its sidecar. The store is
//! single-owner: ownership is anchored in filesystem permissions on
//! `DIR`, so imported metadata is owned by the invoking session.

use std::path::{Path, PathBuf};
use std::process::exit;

use robustore::core::metadata::CodingSpec;
use robustore::core::{
    AccessMode, Client, FileBackend, FileMeta, MetastoreConfig, QosOptions, RepairService,
    ScrubReport, System, SystemConfig,
};
use robustore::erasure::LtParams;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: robustore --store DIR <command>\n\
         commands:\n\
         \x20 init --disks N [--spread X]   create a store (disk speeds span X-fold, default 4)\n\
         \x20 put <file> [--name NAME] [--redundancy D]\n\
         \x20 get <name> [--out PATH]\n\
         \x20 rm <name>\n\
         \x20 ls\n\
         \x20 stat <name>\n\
         \x20 scrub [<name>]                verify every block, restore redundancy, add checksums"
    );
    exit(2);
}

/// The legacy plain-text metadata sidecar, now an import format only: a
/// versioned key=value list with one `disk` line per layout entry. v3
/// carries per-block CRC32C checksums (`crc` lines); v2 has none, so its
/// blocks read as unverified until a scrub adds them; v1 indexed blocks
/// under the pre-generation key scheme and is refused rather than
/// misaddress every block.
mod sidecar {
    use super::*;

    /// Decode a sidecar, or say precisely why it cannot be trusted —
    /// torn/truncated files and unknown versions must surface a clean
    /// error, never a panic or a silently empty meta.
    pub fn decode(text: &str, owner: u64) -> Result<FileMeta, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty sidecar")?;
        let has_checksums = match header {
            "robustore-meta-v3" => true,
            "robustore-meta-v2" => false, // forward-compat: no crc lines
            "robustore-meta-v1" => {
                return Err(
                    "v1 sidecar indexes blocks under the pre-generation key scheme; \
                     refusing to misaddress every block"
                        .into(),
                )
            }
            other => {
                return Err(format!(
                    "unrecognised sidecar header {other:?} (torn file or future version)"
                ))
            }
        };
        let mut name = None;
        let mut file_id = None;
        let mut size_bytes = None;
        let mut k = None;
        let mut n = None;
        let mut block_bytes = None;
        let mut c = None;
        let mut delta = None;
        let mut seed = None;
        let mut version = None;
        let mut odd_keys = std::collections::BTreeSet::new();
        let mut layout: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut checksums = std::collections::BTreeMap::new();
        let bad = |key: &str, value: &str| format!("bad {key} value {value:?} (torn line?)");
        for line in lines {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line {line:?} (torn file?)"))?;
            match key {
                "name" => name = Some(value.to_string()),
                "file_id" => file_id = Some(value.parse().map_err(|_| bad(key, value))?),
                "size_bytes" => size_bytes = Some(value.parse().map_err(|_| bad(key, value))?),
                "k" => k = Some(value.parse().map_err(|_| bad(key, value))?),
                "n" => n = Some(value.parse().map_err(|_| bad(key, value))?),
                "block_bytes" => block_bytes = Some(value.parse().map_err(|_| bad(key, value))?),
                "lt_c" => c = Some(value.parse().map_err(|_| bad(key, value))?),
                "lt_delta" => delta = Some(value.parse().map_err(|_| bad(key, value))?),
                "seed" => seed = Some(value.parse().map_err(|_| bad(key, value))?),
                "version" => version = Some(value.parse().map_err(|_| bad(key, value))?),
                "odd" => {
                    for t in value.split(',').filter(|t| !t.is_empty()) {
                        odd_keys.insert(t.parse().map_err(|_| bad(key, value))?);
                    }
                }
                "disk" => {
                    let (disk, ids) = value.split_once(':').ok_or_else(|| bad(key, value))?;
                    let ids: Vec<u32> = if ids.is_empty() {
                        Vec::new()
                    } else {
                        ids.split(',')
                            .map(|t| t.parse().ok())
                            .collect::<Option<_>>()
                            .ok_or_else(|| bad(key, value))?
                    };
                    layout.push((disk.parse().map_err(|_| bad(key, value))?, ids));
                }
                "crc" if has_checksums => {
                    let (id, crc) = value.split_once(':').ok_or_else(|| bad(key, value))?;
                    checksums.insert(
                        id.parse().map_err(|_| bad(key, value))?,
                        u32::from_str_radix(crc, 16).map_err(|_| bad(key, value))?,
                    );
                }
                _ => return Err(format!("unknown sidecar key {key:?}")),
            }
        }
        let missing = |field: &str| format!("truncated sidecar: missing {field}");
        Ok(FileMeta {
            name: name.ok_or_else(|| missing("name"))?,
            file_id: file_id.ok_or_else(|| missing("file_id"))?,
            size_bytes: size_bytes.ok_or_else(|| missing("size_bytes"))?,
            coding: CodingSpec {
                k: k.ok_or_else(|| missing("k"))?,
                n: n.ok_or_else(|| missing("n"))?,
                block_bytes: block_bytes.ok_or_else(|| missing("block_bytes"))?,
                params: LtParams {
                    c: c.ok_or_else(|| missing("lt_c"))?,
                    delta: delta.ok_or_else(|| missing("lt_delta"))?,
                    ..Default::default()
                },
                seed: seed.ok_or_else(|| missing("seed"))?,
            },
            layout,
            odd_keys,
            checksums,
            owner,
            version: version.ok_or_else(|| missing("version"))?,
        })
    }
}

/// Open the store — blocks under `DIR/disk-*`, metadata recovered from
/// the metastore's logs under `DIR/meta` — and import any legacy
/// sidecars, all owned by a fresh session identity.
fn open_store(store: &Path) -> (System, Client) {
    if !store.join("speeds").exists() {
        die(&format!(
            "no store at {} (run `robustore --store {} init --disks N` first)",
            store.display(),
            store.display()
        ));
    }
    let backend = FileBackend::reopen(store).unwrap_or_else(|e| die(&e.to_string()));
    let system = System::try_with_backend(
        Box::new(backend),
        SystemConfig {
            block_bytes: 256 << 10,
            metastore: MetastoreConfig {
                dir: Some(store.join("meta")),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    let me = system.register_user();
    import_sidecars(store, &system, me);
    let client = Client::connect(&system, me);
    (system, client)
}

/// One-shot migration of `DIR/metadata/*.meta`. A sidecar is removed
/// only once its content is in the metastore — imported now, or already
/// there because the metastore holds a committed entry under that name,
/// which is newer than any sidecar. A sidecar that cannot be removed
/// stops the command: left behind, it could resurrect a name a later
/// `rm` deletes. A sidecar that cannot be trusted stays in place and
/// warns on every open: the file's blocks stay on disk, its name is
/// absent until the sidecar is repaired.
fn import_sidecars(store: &Path, system: &System, owner: u64) {
    let Ok(entries) = std::fs::read_dir(store.join("metadata")) else {
        return;
    };
    let sidecars = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "meta"));
    for path in sidecars {
        let meta = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| sidecar::decode(&text, owner));
        let imported = match meta {
            Err(why) => Err(format!("skipping sidecar {}: {why}", path.display())),
            Ok(meta) if system.export_meta(&meta.name).is_some() => Ok(()),
            Ok(meta) => system
                .import_meta(meta)
                .map_err(|e| format!("could not import sidecar {}: {e}", path.display())),
        };
        match imported {
            Ok(()) => std::fs::remove_file(&path).unwrap_or_else(|e| {
                die(&format!(
                    "sidecar {} is imported but cannot be removed: {e}",
                    path.display()
                ))
            }),
            Err(warning) => eprintln!("warning: {warning}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store: Option<PathBuf> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--store" {
            i += 1;
            store = args.get(i).map(PathBuf::from);
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let store = store.unwrap_or_else(|| usage());
    if rest.is_empty() {
        usage();
    }
    let flag = |name: &str| -> Option<String> {
        rest.iter()
            .position(|a| a == name)
            .and_then(|p| rest.get(p + 1).cloned())
    };

    match rest[0].as_str() {
        "init" => {
            let disks: usize = flag("--disks")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            let spread: f64 = flag("--spread").and_then(|v| v.parse().ok()).unwrap_or(4.0);
            if disks == 0 || spread < 1.0 {
                die("need --disks ≥ 1 and --spread ≥ 1");
            }
            // Nominal speeds spanning `spread`-fold, for planner realism.
            let speeds: Vec<f64> = (0..disks)
                .map(|d| 10e6 * spread.powf(d as f64 / (disks.max(2) - 1) as f64))
                .collect();
            FileBackend::open(&store, speeds).unwrap_or_else(|e| die(&e.to_string()));
            println!(
                "initialised store at {} with {disks} disks",
                store.display()
            );
        }
        "put" => {
            let src = rest.get(1).unwrap_or_else(|| usage());
            let name = flag("--name").unwrap_or_else(|| src.clone());
            let redundancy: f64 = flag("--redundancy")
                .and_then(|v| v.parse().ok())
                .unwrap_or(3.0);
            let data = std::fs::read(src).unwrap_or_else(|e| die(&format!("read {src}: {e}")));
            let (_system, client) = open_store(&store);
            let mut h = client
                .open(
                    &name,
                    AccessMode::Write,
                    QosOptions::best_effort().with_redundancy(redundancy),
                )
                .unwrap_or_else(|e| die(&e.to_string()));
            let report = client
                .write(&mut h, &data)
                .unwrap_or_else(|e| die(&e.to_string()));
            client.close(h).unwrap_or_else(|e| die(&e.to_string()));
            println!(
                "stored {name}: {} bytes as {} coded blocks on {} disks ({:.0}% redundancy)",
                data.len(),
                report.blocks_written,
                report.disks,
                report.redundancy * 100.0
            );
        }
        "get" => {
            let name = rest.get(1).unwrap_or_else(|| usage());
            let out = flag("--out").unwrap_or_else(|| name.clone());
            let (_system, client) = open_store(&store);
            let h = client
                .open(name, AccessMode::Read, QosOptions::best_effort())
                .unwrap_or_else(|e| die(&e.to_string()));
            let (data, rr) = client
                .read_with_report(&h)
                .unwrap_or_else(|e| die(&e.to_string()));
            client.close(h).unwrap_or_else(|e| die(&e.to_string()));
            std::fs::write(&out, &data).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
            println!(
                "retrieved {name} -> {out} ({} bytes from {} blocks, {} left unread)",
                data.len(),
                rr.blocks_fetched,
                rr.blocks_cancelled
            );
            // The repair backlog lives in this process: drain what the
            // read queued before exiting, or it is lost.
            let repair = RepairService::new(client).eager().run_enqueued(usize::MAX);
            if repair.blocks_restored() > 0 {
                println!(
                    "read-repair restored {} damaged blocks",
                    repair.blocks_restored()
                );
            }
            for (name, e) in &repair.failed {
                eprintln!("{name}: read-repair failed: {e}");
            }
        }
        "rm" => {
            let name = rest.get(1).unwrap_or_else(|| usage());
            let (_system, client) = open_store(&store);
            client.delete(name).unwrap_or_else(|e| die(&e.to_string()));
            println!("removed {name}");
        }
        "ls" => {
            let (system, _client) = open_store(&store);
            for name in system.list_files() {
                println!("{name}");
            }
        }
        "scrub" => {
            let (_system, client) = open_store(&store);
            let print_report = |r: &ScrubReport| {
                println!(
                    "{}: {}/{} blocks stored ({} verified, {} unverified, \
                     {} corrupt, {} missing) -> restored {}, +{} checksums",
                    r.file,
                    r.blocks_stored_after,
                    r.blocks_target,
                    r.blocks_verified,
                    r.blocks_unverified,
                    r.blocks_corrupt,
                    r.blocks_missing,
                    r.blocks_restored,
                    r.checksums_added
                );
            };
            match rest.get(1).filter(|a| !a.starts_with("--")) {
                Some(name) => {
                    let r = client.scrub(name).unwrap_or_else(|e| die(&e.to_string()));
                    print_report(&r);
                }
                None => {
                    let sweep = RepairService::new(client).eager().sweep();
                    for r in &sweep.scrubbed {
                        print_report(r);
                    }
                    for (name, e) in &sweep.failed {
                        eprintln!("{name}: scrub failed: {e}");
                    }
                    if !sweep.failed.is_empty() {
                        exit(1);
                    }
                }
            }
        }
        "stat" => {
            let name = rest.get(1).unwrap_or_else(|| usage());
            let (system, _client) = open_store(&store);
            match system.export_meta(name) {
                Some(m) => {
                    println!("name:        {}", m.name);
                    println!("size:        {} bytes", m.size_bytes);
                    println!(
                        "coding:      LT K={} N={} C={} delta={} ({} KiB blocks, seed {:#x})",
                        m.coding.k,
                        m.coding.n,
                        m.coding.params.c,
                        m.coding.params.delta,
                        m.coding.block_bytes >> 10,
                        m.coding.seed
                    );
                    println!("version:     {}", m.version);
                    println!(
                        "disks used:  {}",
                        m.layout.iter().filter(|(_, b)| !b.is_empty()).count()
                    );
                    println!("blocks:      {}", m.stored_blocks());
                }
                None => die(&format!("no such file: {name}")),
            }
        }
        _ => usage(),
    }
}
