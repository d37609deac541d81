//! Process-kill crash consistency of the `robustore` CLI.
//!
//! A seeded loop of new-name `put`s, overwriting `put`s and `rm`s over
//! three names, each op SIGKILLed at a seeded delay spread across the
//! op's measured duration. After every kill, fresh processes check the
//! contract of the shipped store:
//!
//! - every name `ls` lists reads back byte-exact as either its last
//!   acknowledged content or the killed op's content;
//! - a name is missing from `ls` only if it was never acknowledged or the
//!   killed op was its `rm`;
//! - `scrub` of the whole store succeeds.
//!
//! SIGKILL leaves the page cache intact, so this checks the order of the
//! process's own steps (blocks, then metadata commit, then garbage
//! collection), not power-loss durability.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
/// Kills that must land while the op is still running.
const KILLS: usize = 200;
const MIN_BYTES: usize = 512 << 10;
const MAX_BYTES: usize = 3 << 20;

/// SplitMix64: the loop's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn payload(&mut self) -> Vec<u8> {
        let len = MIN_BYTES + self.below(MAX_BYTES - MIN_BYTES + 1);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    New,
    Overwrite,
    Remove,
}

/// One op of the loop: `put` of `data` under `name`, or `rm` of `name`
/// when `data` is `None`.
struct Op {
    kind: Kind,
    name: &'static str,
    data: Option<Vec<u8>>,
}

struct Store {
    dir: PathBuf,
    root: String,
    src: PathBuf,
    out: PathBuf,
}

impl Store {
    fn init(dir: PathBuf) -> Store {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store {
            root: dir.join("store").to_str().unwrap().to_string(),
            src: dir.join("src.bin"),
            out: dir.join("out.bin"),
            dir,
        };
        let (ok, out) = store.run(&["init", "--disks", "6"]);
        assert!(ok, "init: {out}");
        store
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_robustore"));
        cmd.arg("--store").arg(&self.root).args(args);
        cmd
    }

    fn run(&self, args: &[&str]) -> (bool, String) {
        let out = self.command(args).output().expect("spawn CLI");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.success(), text)
    }

    /// Start `op` in a child process; `None` once it has been killed
    /// after `delay`, `Some(success)` if it exited first.
    fn start(&self, op: &Op, delay: Option<Duration>) -> Option<bool> {
        let mut cmd = match &op.data {
            Some(data) => {
                std::fs::write(&self.src, data).unwrap();
                self.command(&["put", self.src.to_str().unwrap(), "--name", op.name])
            }
            None => self.command(&["rm", op.name]),
        };
        let mut child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn CLI");
        if let Some(delay) = delay {
            std::thread::sleep(delay);
            if child.try_wait().unwrap().is_none() {
                child.kill().unwrap();
            }
        }
        child.wait().unwrap().code().map(|c| c == 0)
    }

    /// The store as fresh processes see it: every name `ls` prints on
    /// stdout and its bytes (`Err` with the CLI's output when a listed
    /// name is unreadable).
    fn observe(&self) -> Result<BTreeMap<String, Vec<u8>>, String> {
        let ls = self.command(&["ls"]).output().expect("spawn CLI");
        if !ls.status.success() {
            let why = String::from_utf8_lossy(&ls.stderr);
            return Err(format!("ls failed: {why}"));
        }
        let mut seen = BTreeMap::new();
        for name in String::from_utf8_lossy(&ls.stdout).lines() {
            match self.run(&["get", name, "--out", self.out.to_str().unwrap()]) {
                (true, _) => seen.insert(name.to_string(), std::fs::read(&self.out).unwrap()),
                (false, out) => return Err(format!("`ls` lists {name} but get fails: {out}")),
            };
        }
        Ok(seen)
    }
}

/// Check what a fresh process observes against the acknowledged model
/// and the killed op.
fn check(
    observed: &BTreeMap<String, Vec<u8>>,
    acked: &BTreeMap<&str, Vec<u8>>,
    killed: &Op,
) -> Result<(), String> {
    if let Some(ghost) = observed.keys().find(|n| !NAMES.contains(&n.as_str())) {
        return Err(format!("`ls` lists {ghost:?}, which no op ever wrote"));
    }
    for name in NAMES {
        let last = acked.get(name).map(Vec::as_slice);
        let killed_result = (killed.name == name).then_some(killed.data.as_deref());
        let allowed = |got: Option<&[u8]>| got == last || killed_result == Some(got);
        let got = observed.get(name).map(Vec::as_slice);
        if !allowed(got) {
            return Err(match got {
                Some(bytes) => format!(
                    "{name} reads {} bytes that are neither its acknowledged content nor the killed op's",
                    bytes.len()
                ),
                None => format!(
                    "{name} vanished; the killed op was {:?} {}",
                    killed.kind, killed.name
                ),
            });
        }
    }
    Ok(())
}

#[test]
fn killed_puts_and_removes_leave_old_or_new_content_never_a_broken_name() {
    let dir = std::env::temp_dir().join(format!("robustore-crash-{}", std::process::id()));
    let mut store = Store::init(dir.clone());
    let mut rng = Rng(0x0005_EED5_C1A5_4001);

    // Each kind's duration, measured unkilled on a largest-size payload;
    // the kill delays are spread uniformly across it.
    let mut duration = BTreeMap::new();
    for kind in [Kind::New, Kind::Overwrite, Kind::Remove] {
        let data = (kind != Kind::Remove).then(|| vec![0x5A; MAX_BYTES]);
        let op = Op {
            kind,
            name: "alpha",
            data,
        };
        let begun = Instant::now();
        assert_eq!(store.start(&op, None), Some(true), "unkilled {kind:?}");
        duration.insert(kind, begun.elapsed());
    }
    let mut acked: BTreeMap<&str, Vec<u8>> = BTreeMap::new();

    let (mut kills, mut attempts) = (0usize, 0usize);
    let mut violations = Vec::new();
    let begun = Instant::now();
    while kills < KILLS {
        attempts += 1;
        assert!(attempts < 4 * KILLS, "kills keep missing the op window");
        let (present, absent): (Vec<&str>, Vec<&str>) =
            NAMES.iter().partition(|n| acked.contains_key(*n));
        let kind = match attempts % 3 {
            _ if present.is_empty() => Kind::New,
            0 if !absent.is_empty() => Kind::New,
            1 => Kind::Overwrite,
            _ => Kind::Remove,
        };
        let pool = if kind == Kind::New { &absent } else { &present };
        let op = Op {
            kind,
            name: pool[rng.below(pool.len())],
            data: (kind != Kind::Remove).then(|| rng.payload()),
        };
        let span = duration[&kind].as_micros() as usize;
        let delay = Duration::from_micros(rng.below(span + 1) as u64);

        let verdict = match store.start(&op, Some(delay)) {
            Some(true) => {
                match &op.data {
                    Some(data) => acked.insert(op.name, data.clone()),
                    None => acked.remove(op.name),
                };
                continue;
            }
            Some(false) => Err(format!("{:?} {} failed without a kill", op.kind, op.name)),
            None => {
                kills += 1;
                store.observe().and_then(|observed| {
                    check(&observed, &acked, &op)?;
                    let (ok, out) = store.run(&["scrub"]);
                    if !ok {
                        return Err(format!("scrub failed: {out}"));
                    }
                    acked = NAMES
                        .into_iter()
                        .filter_map(|n| Some((n, observed.get(n)?.clone())))
                        .collect();
                    Ok(())
                })
            }
        };
        if let Err(why) = verdict {
            violations.push(format!(
                "kill {kills} ({:?} {} at {delay:?}): {why}",
                op.kind, op.name
            ));
            // Start over on a fresh store so one broken name is counted
            // once, not on every later kill.
            store = Store::init(dir.clone());
            acked.clear();
        }
    }
    eprintln!(
        "{kills} kills in {attempts} attempts, {:.1} s; op durations {duration:?}",
        begun.elapsed().as_secs_f64()
    );
    assert!(
        violations.is_empty(),
        "{} of {kills} kills broke the store:\n{}",
        violations.len(),
        violations.join("\n")
    );
    std::fs::remove_dir_all(&store.dir).ok();
}
