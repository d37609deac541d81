//! The access coordinator: one read or write access as a discrete-event
//! simulation over a [`Cluster`].
//!
//! The engine mirrors the paper's simulator structure (§6.2.2, Figure
//! 6-3): the virtual client plans the access, requests blocks; each
//! request is delayed by the fixed network latency, checked against the
//! filer cache, and queued at the virtual disk; completions flow back
//! through the (serialised) client NIC. Speculative schemes cancel
//! outstanding requests one half-RTT after the client has enough blocks —
//! whatever is already in service or in flight completes and is charged to
//! I/O overhead, the paper's "one round-trip of waste".
//!
//! Timing model:
//!
//! * client → server: requests are small; they arrive RTT/2 after sending.
//! * server → client (reads): a block departs when the disk (or cache)
//!   produces it, propagates RTT/2, then serialises over the client NIC at
//!   `client_bandwidth` — the only shared-bandwidth resource modelled,
//!   since the paper presumes plentiful bandwidth elsewhere.
//! * client → server (writes): symmetric, serialising on the egress side.
//! * metadata/open: a flat 5 ms before any request leaves (§6.2.2).

use std::collections::HashMap;

use robustore_cluster::server::{line_address, lines_per_block};
use robustore_cluster::Cluster;
use robustore_diskmodel::request::{Direction, DiskRequest, RequestId, StreamId};
use robustore_simkit::{EventQueue, FaultKind, FaultPlan, SimDuration, SimTime};

use crate::adaptive::AdaptivePlanner;
use crate::config::{AccessConfig, SchemeKind};
use crate::outcome::{AccessOutcome, RequestOutcome, RequestRecord};
use crate::placement::Placement;
use crate::tracker::ReadTracker;

/// All foreground requests of the access share one stream id.
const FG_STREAM: StreamId = StreamId::Foreground(0);
/// Request-id space for background requests, above any instance id.
const BG_ID_BASE: u64 = 1 << 40;
/// Speculative-write pipeline depth per disk: enough to hide an RTT while
/// a block is being written (block service ≫ RTT in every configuration).
const WRITE_WINDOW: usize = 4;
/// Background-load warm-up before the access starts, so shared disks are
/// at their steady-state backlog when the client's requests arrive (the
/// paper's competitive-workload operating points, e.g. 93% utilisation at
/// a 6 ms interval, are steady-state figures).
const BG_WARMUP: SimDuration = SimDuration::from_secs(2);
/// How many times a request lost to a flaky disk's I/O error is
/// re-issued before the coordinator gives up on it.
const MAX_IO_RETRIES: u8 = 3;

/// Lifecycle of one block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    /// Created; request or data still on its way to the server.
    Pending,
    /// Queued or in service at the disk.
    AtDisk,
    /// Disk done; block data (read) or ack (write) heading to the client.
    InFlight,
    /// Delivered / acknowledged.
    Done,
    /// Cancelled before the disk serviced it.
    Cancelled,
}

#[derive(Debug, Clone, Copy)]
struct Instance {
    slot: usize,
    semantic: u32,
    copy: u8,
    state: InstState,
}

/// Simulation events.
enum Ev {
    /// Metadata/open finished; issue the initial requests.
    Start,
    /// A batch of read requests reaches a server.
    RequestsArrive { slot: usize, insts: Vec<u32> },
    /// A write block's data reaches its server.
    WriteArrive { inst: u32 },
    /// A background request arrives at a disk.
    BgArrive { slot: usize },
    /// The disk under `slot` finished its current service.
    DiskDone { slot: usize },
    /// A read block finished its transmission slot on the client NIC.
    NicDone { inst: u32 },
    /// A read block fully arrived at the client.
    Deliver { inst: u32 },
    /// A write acknowledgement arrived at the client.
    Ack { inst: u32 },
    /// A cancel-everything reaches a server.
    CancelAll { slot: usize },
    /// An RRAID-A cancel for one block reaches a server.
    CancelOne { slot: usize, inst: u32 },
    /// A scheduled fault from the access's [`FaultPlan`] takes effect.
    Fault { idx: usize },
}

/// Result of a simulated write, including what physically got committed.
pub struct WriteResult {
    /// The access metrics.
    pub outcome: AccessOutcome,
    /// Confirmed (acknowledged) block semantics per slot, in commit order —
    /// the layout a subsequent read sees.
    pub committed_per_slot: Vec<Vec<u32>>,
}

/// The coordinator for one access.
pub struct Engine<'a> {
    cfg: &'a AccessConfig,
    cluster: &'a mut Cluster,
    /// Global disk id per slot.
    disk_ids: &'a [usize],
    placement: &'a Placement,
    q: EventQueue<Ev>,
    instances: Vec<Instance>,
    /// Instances not yet Done/Cancelled.
    outstanding: usize,
    /// Read blocks ready at their servers, waiting for the client NIC.
    /// Until a block starts transmitting it still sits server-side and a
    /// cancellation can drop it.
    nic_pending: std::collections::VecDeque<u32>,
    /// Whether a block is currently transmitting toward the client.
    nic_busy: bool,
    /// Write-side client NIC serialisation point.
    egress_free: SimTime,
    network_bytes: u64,
    cache_hits: usize,
    completed_at: Option<SimTime>,
    blocks_at_completion: usize,
    reception_overhead: f64,
    bg_counter: u64,
    /// Set when injected failures make completion impossible.
    failed: bool,
    /// RRAID-A: (slot, semantic) → outstanding instance, for cancels.
    by_slot_sem: HashMap<(usize, u32), u32>,
    /// Scheduled mid-access faults (empty when the scenario is `None`).
    fault_plan: FaultPlan,
    /// Slots whose disk failed permanently mid-access.
    slot_failed: Vec<bool>,
    /// Per-instance count of I/O-error retries (flaky disks).
    retries: HashMap<u32, u8>,
    /// Per-request outcomes in finish order.
    request_log: Vec<RequestRecord>,
}

impl<'a> Engine<'a> {
    /// A fresh engine over `cluster` for the selected `disk_ids` and
    /// `placement` (one slot per selected disk). `faults` is the
    /// access's deterministic fault schedule; pass
    /// [`FaultPlan::empty`] for a fault-free run.
    pub fn new(
        cfg: &'a AccessConfig,
        cluster: &'a mut Cluster,
        disk_ids: &'a [usize],
        placement: &'a Placement,
        faults: FaultPlan,
    ) -> Self {
        assert_eq!(
            disk_ids.len(),
            placement.disks(),
            "placement and disk selection disagree"
        );
        assert!(
            faults.events.iter().all(|e| e.slot < disk_ids.len()),
            "fault plan targets a slot outside the selected disks"
        );
        // If a previous engine used this cluster, its event queue — and
        // any pending disk-completion events — are gone; start clean.
        cluster.quiesce();
        Engine {
            cfg,
            cluster,
            disk_ids,
            placement,
            q: EventQueue::new(),
            instances: Vec::new(),
            outstanding: 0,
            nic_pending: std::collections::VecDeque::new(),
            nic_busy: false,
            egress_free: SimTime::ZERO,
            network_bytes: 0,
            cache_hits: 0,
            completed_at: None,
            blocks_at_completion: 0,
            reception_overhead: 0.0,
            bg_counter: 0,
            failed: false,
            by_slot_sem: HashMap::new(),
            slot_failed: vec![false; disk_ids.len()],
            fault_plan: faults,
            retries: HashMap::new(),
            request_log: Vec::new(),
        }
    }

    /// Failure injection: the first `failed_disks` slots are down.
    fn slot_is_down(&self, slot: usize) -> bool {
        slot < self.cfg.failed_disks
    }

    /// A slot that cannot serve: statically down or failed mid-access.
    fn slot_dead(&self, slot: usize) -> bool {
        self.slot_is_down(slot) || self.slot_failed[slot]
    }

    /// Schedule every event of the fault plan relative to the access
    /// start (the instant the client begins, not the metadata phase).
    fn schedule_faults(&mut self, start: SimTime) {
        for idx in 0..self.fault_plan.events.len() {
            let at = start + self.fault_plan.events[idx].at;
            self.q.schedule(at, Ev::Fault { idx });
        }
    }

    /// Apply scheduled fault `idx`: flip the disk's health state, drop
    /// its queued work (permanent failure), or dump a burst of
    /// background requests on it.
    fn on_fault(&mut self, now: SimTime, idx: usize) {
        let fe = self.fault_plan.events[idx];
        let slot = fe.slot;
        if self.slot_dead(slot) {
            return; // already dead; nothing left to hurt
        }
        let gdisk = self.disk_ids[slot];
        match fe.kind {
            FaultKind::LoadBurst { requests, sectors } => {
                for _ in 0..requests {
                    self.bg_counter += 1;
                    let req = DiskRequest {
                        id: RequestId(BG_ID_BASE + self.bg_counter),
                        stream: StreamId::Background,
                        direction: Direction::Read,
                        sectors,
                        tag: 0,
                    };
                    if let Some(t) = self.cluster.disk_mut(gdisk).submit(now, req) {
                        self.q.schedule(t, Ev::DiskDone { slot });
                    }
                }
            }
            FaultKind::PermanentFailure => {
                self.slot_failed[slot] = true;
                let dropped =
                    self.cluster
                        .apply_fault(now, gdisk, slot, &fe.kind, &self.fault_plan);
                for r in dropped {
                    // Queued foreground work dies with the disk;
                    // background requests simply vanish.
                    if r.stream == FG_STREAM {
                        self.finish_instance(r.tag as u32, RequestOutcome::Failed);
                    }
                }
            }
            FaultKind::Slowdown { .. } | FaultKind::Flaky { .. } => {
                let dropped =
                    self.cluster
                        .apply_fault(now, gdisk, slot, &fe.kind, &self.fault_plan);
                debug_assert!(dropped.is_empty());
            }
        }
    }

    fn half_rtt(&self) -> SimDuration {
        self.cfg.cluster.rtt / 2
    }

    fn block_sectors(&self) -> u64 {
        robustore_diskmodel::bytes_to_sectors(self.cfg.block_bytes)
    }

    fn block_transfer(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.cfg.block_bytes as f64 / self.cfg.cluster.client_bandwidth)
    }

    fn decode_tail(&self) -> SimDuration {
        if self.cfg.scheme == SchemeKind::RobuStore {
            SimDuration::from_secs_f64(self.cfg.block_bytes as f64 / self.cfg.decode_bandwidth)
        } else {
            SimDuration::ZERO
        }
    }

    fn done(&self) -> bool {
        self.failed || (self.completed_at.is_some() && self.outstanding == 0)
    }

    /// Every live request is gone but the access has not completed: the
    /// injected failures removed too many blocks.
    fn check_unreachable(&mut self) {
        if self.completed_at.is_none() && self.outstanding == 0 && !self.instances.is_empty() {
            self.failed = true;
        }
    }

    /// Seed background arrivals for every selected disk (from t = 0, so
    /// disks are already loaded when the client's requests land).
    fn seed_background(&mut self) {
        for slot in 0..self.disk_ids.len() {
            let gdisk = self.disk_ids[slot];
            if let Some(bg) = self.cluster.background_mut(gdisk) {
                let t = bg.next_arrival(SimTime::ZERO);
                self.q.schedule(t, Ev::BgArrive { slot });
            }
        }
    }

    /// When the access's clock starts: after the background warm-up if the
    /// cluster is shared, immediately otherwise.
    fn access_start(&self) -> SimTime {
        if self.cluster.has_background() {
            SimTime::ZERO + BG_WARMUP
        } else {
            SimTime::ZERO
        }
    }

    fn new_instance(&mut self, slot: usize, semantic: u32, copy: u8) -> u32 {
        let id = self.instances.len() as u32;
        self.instances.push(Instance {
            slot,
            semantic,
            copy,
            state: InstState::Pending,
        });
        self.outstanding += 1;
        id
    }

    /// Retire an instance with its final outcome, appending it to the
    /// per-request log. Served maps to `Done`; everything else is a
    /// form of cancellation for the internal lifecycle.
    fn finish_instance(&mut self, inst: u32, outcome: RequestOutcome) {
        let state = match outcome {
            RequestOutcome::Served => InstState::Done,
            _ => InstState::Cancelled,
        };
        let i = &mut self.instances[inst as usize];
        debug_assert!(!matches!(i.state, InstState::Done | InstState::Cancelled));
        i.state = state;
        self.outstanding -= 1;
        let key = (i.slot, i.semantic);
        self.request_log.push(RequestRecord {
            slot: i.slot,
            semantic: i.semantic,
            outcome,
        });
        self.by_slot_sem.remove(&key);
    }

    fn fg_request(&self, inst: u32, direction: Direction) -> DiskRequest {
        DiskRequest {
            id: RequestId(inst as u64),
            stream: FG_STREAM,
            direction,
            sectors: self.block_sectors(),
            tag: inst as u64,
        }
    }

    fn submit_to_disk(&mut self, now: SimTime, inst: u32, direction: Direction) {
        let slot = self.instances[inst as usize].slot;
        let req = self.fg_request(inst, direction);
        self.instances[inst as usize].state = InstState::AtDisk;
        let disk = self.cluster.disk_mut(self.disk_ids[slot]);
        if let Some(t) = disk.submit(now, req) {
            self.q.schedule(t, Ev::DiskDone { slot });
        }
    }

    /// Queue a block the server produced for transmission to the client.
    /// The client link serialises transmissions; blocks that have not
    /// begun transmitting remain at the server and are droppable by a
    /// cancellation. Network bytes are counted at transmission start.
    fn deliver_from_server(&mut self, now: SimTime, inst: u32) {
        self.instances[inst as usize].state = InstState::InFlight;
        self.nic_pending.push_back(inst);
        self.try_start_nic(now);
    }

    fn try_start_nic(&mut self, now: SimTime) {
        if self.nic_busy {
            return;
        }
        let Some(inst) = self.nic_pending.pop_front() else {
            return;
        };
        self.nic_busy = true;
        self.network_bytes += self.cfg.block_bytes;
        self.q
            .schedule(now + self.block_transfer(), Ev::NicDone { inst });
    }

    fn on_nic_done(&mut self, now: SimTime, inst: u32) {
        self.nic_busy = false;
        // Propagation to the client overlaps the next transmission.
        self.q.schedule(now + self.half_rtt(), Ev::Deliver { inst });
        self.try_start_nic(now);
    }

    /// Ship a write block from client to server through the egress NIC.
    fn send_write(&mut self, now: SimTime, inst: u32) {
        self.network_bytes += self.cfg.block_bytes;
        let begin = now.max(self.egress_free);
        let sent = begin + self.block_transfer();
        self.egress_free = sent;
        self.q
            .schedule(sent + self.half_rtt(), Ev::WriteArrive { inst });
    }

    /// Cache address of a stored block on its disk.
    fn cache_addr(&self, gdisk: usize, semantic: u32, copy: u8) -> (u64, u64) {
        let tag = ((semantic as u64) << 8) | copy as u64;
        let lines = lines_per_block(self.cfg.block_bytes, self.cfg.cluster.cache_line_bytes);
        (line_address(gdisk, tag, 0), lines)
    }

    fn on_bg_arrive(&mut self, now: SimTime, slot: usize) {
        if self.completed_at.is_some() {
            return; // stop generating load once the access is over
        }
        if self.slot_failed[slot] {
            return; // a dead disk takes no more background work
        }
        let gdisk = self.disk_ids[slot];
        self.bg_counter += 1;
        let id = RequestId(BG_ID_BASE + self.bg_counter);
        let backlog = self.cluster.disk(gdisk).queued_background();
        let Some(bg) = self.cluster.background_mut(gdisk) else {
            return;
        };
        let next = bg.next_arrival(now);
        // Competing applications throttle once their own queue backs up.
        if backlog < robustore_diskmodel::background::MAX_BACKLOG {
            let req = bg.make_request(id);
            if let Some(t) = self.cluster.disk_mut(gdisk).submit(now, req) {
                self.q.schedule(t, Ev::DiskDone { slot });
            }
        }
        self.q.schedule(next, Ev::BgArrive { slot });
    }

    /// Issue the post-completion cancellation to every server.
    fn broadcast_cancel(&mut self, now: SimTime) {
        for slot in 0..self.disk_ids.len() {
            self.q
                .schedule(now + self.half_rtt(), Ev::CancelAll { slot });
        }
    }

    fn on_cancel_all(&mut self, slot: usize) {
        let disk = self.cluster.disk_mut(self.disk_ids[slot]);
        let cancelled = disk.cancel_stream(FG_STREAM);
        for r in cancelled {
            self.finish_instance(r.tag as u32, RequestOutcome::CancelledBySpeculation);
        }
        // Blocks this server produced that have not begun transmitting are
        // still server-side: the cancel drops them untransmitted.
        let mut dropped = Vec::new();
        self.nic_pending.retain(|&inst| {
            if self.instances[inst as usize].slot == slot {
                dropped.push(inst);
                false
            } else {
                true
            }
        });
        for inst in dropped {
            self.finish_instance(inst, RequestOutcome::CancelledBySpeculation);
        }
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// Run a read access to completion, returning the metrics.
    ///
    /// `tracker` implements the scheme's completion rule; `adaptive` is
    /// `Some` for RRAID-A.
    pub fn run_read(
        mut self,
        mut tracker: ReadTracker<'_>,
        mut adaptive: Option<AdaptivePlanner>,
    ) -> AccessOutcome {
        self.seed_background();
        let start = self.access_start();
        self.schedule_faults(start);
        self.q
            .schedule(start + self.cfg.cluster.metadata_overhead, Ev::Start);

        while !self.done() {
            let Some((now, ev)) = self.q.pop() else {
                panic!(
                    "read simulation stalled: outstanding={}, complete={}",
                    self.outstanding,
                    tracker.is_complete()
                );
            };
            match ev {
                Ev::Start => self.read_start(now, adaptive.as_mut()),
                Ev::RequestsArrive { slot, insts } => self.read_requests_arrive(now, slot, insts),
                Ev::BgArrive { slot } => self.on_bg_arrive(now, slot),
                Ev::DiskDone { slot } => self.read_disk_done(now, slot),
                Ev::NicDone { inst } => self.on_nic_done(now, inst),
                Ev::Deliver { inst } => {
                    self.read_deliver(now, inst, &mut tracker, adaptive.as_mut())
                }
                Ev::CancelAll { slot } => self.on_cancel_all(slot),
                Ev::CancelOne { slot, inst } => {
                    let disk = self.cluster.disk_mut(self.disk_ids[slot]);
                    if disk.cancel_request(RequestId(inst as u64)) {
                        // The adaptive client gave up on this disk and
                        // re-issued the block elsewhere.
                        self.finish_instance(inst, RequestOutcome::TimedOut);
                    }
                }
                Ev::Fault { idx } => self.on_fault(now, idx),
                Ev::WriteArrive { .. } | Ev::Ack { .. } => {
                    unreachable!("write events in a read access")
                }
            }
            // With the event fully applied, a drained-but-incomplete
            // access can only mean injected failures ate too many blocks.
            self.check_unreachable();
        }

        if self.failed {
            return AccessOutcome {
                data_bytes: self.cfg.data_bytes,
                latency: self.q.now().max(start).since(start),
                network_bytes: self.network_bytes,
                blocks_at_completion: self.blocks_at_completion,
                cache_hit_blocks: self.cache_hits,
                reception_overhead: 0.0,
                failed: true,
                request_log: std::mem::take(&mut self.request_log),
            };
        }
        let completed_at = self.completed_at.expect("loop exits only when done");
        AccessOutcome {
            data_bytes: self.cfg.data_bytes,
            latency: completed_at.since(start),
            network_bytes: self.network_bytes,
            blocks_at_completion: self.blocks_at_completion,
            cache_hit_blocks: self.cache_hits,
            reception_overhead: self.reception_overhead,
            failed: false,
            request_log: std::mem::take(&mut self.request_log),
        }
    }

    fn read_start(&mut self, now: SimTime, adaptive: Option<&mut AdaptivePlanner>) {
        let initial_only_first_copy = adaptive.is_some();
        let placement = self.placement;
        let mut batches: Vec<Vec<u32>> = vec![Vec::new(); self.disk_ids.len()];
        for (slot, batch) in batches.iter_mut().enumerate() {
            for b in &placement.per_disk[slot] {
                if initial_only_first_copy && b.copy != 0 {
                    continue; // RRAID-A round one: replica 0 only
                }
                let inst = self.new_instance(slot, b.semantic, b.copy);
                self.by_slot_sem.insert((slot, b.semantic), inst);
                batch.push(inst);
            }
        }
        if let Some(pl) = adaptive {
            for (slot, batch) in batches.iter().enumerate() {
                for &inst in batch {
                    pl.on_request(slot, self.instances[inst as usize].semantic);
                }
            }
        }
        let at = now + self.half_rtt();
        for (slot, insts) in batches.into_iter().enumerate() {
            if !insts.is_empty() {
                self.q.schedule(at, Ev::RequestsArrive { slot, insts });
            }
        }
    }

    fn read_requests_arrive(&mut self, now: SimTime, slot: usize, insts: Vec<u32>) {
        if self.slot_dead(slot) {
            // The server is dead: requests vanish (the client's timeout is
            // subsumed by speculative access — it never waits on one disk).
            for inst in insts {
                self.finish_instance(inst, RequestOutcome::Failed);
            }
            return;
        }
        if self.completed_at.is_some() && self.cfg.read_cancellation {
            // The cancel already reached (or logically precedes) the
            // server; these requests are dropped on arrival.
            for inst in insts {
                self.finish_instance(inst, RequestOutcome::CancelledBySpeculation);
            }
            return;
        }
        let gdisk = self.disk_ids[slot];
        for inst in insts {
            let Instance { semantic, copy, .. } = self.instances[inst as usize];
            let (addr, lines) = self.cache_addr(gdisk, semantic, copy);
            let server = self.cluster.server_of_disk_mut(gdisk);
            if server.has_cache() && server.cache_read_block(addr, lines) {
                self.cache_hits += 1;
                self.deliver_from_server(now, inst);
            } else {
                self.submit_to_disk(now, inst, Direction::Read);
            }
        }
    }

    fn read_disk_done(&mut self, now: SimTime, slot: usize) {
        let gdisk = self.disk_ids[slot];
        let (completion, next) = self.cluster.disk_mut(gdisk).on_complete(now);
        if let Some(t) = next {
            self.q.schedule(t, Ev::DiskDone { slot });
        }
        if completion.request.stream != FG_STREAM {
            return;
        }
        let inst = completion.request.tag as u32;
        if completion.io_error {
            self.handle_io_error(now, slot, inst, Direction::Read);
            return;
        }
        // The disk read fills the filer cache (reads populate; §6.2.5).
        let Instance { semantic, copy, .. } = self.instances[inst as usize];
        let (addr, lines) = self.cache_addr(gdisk, semantic, copy);
        let server = self.cluster.server_of_disk_mut(gdisk);
        if server.has_cache() {
            server.cache_read_block(addr, lines);
        }
        self.deliver_from_server(now, inst);
    }

    /// A foreground completion carried an I/O error: re-issue the
    /// request a bounded number of times; past the cap — or once the
    /// access is already complete or the disk is dead — account the
    /// block as failed.
    fn handle_io_error(&mut self, now: SimTime, slot: usize, inst: u32, direction: Direction) {
        let give_up = self.completed_at.is_some() || self.slot_dead(slot);
        let attempts = self.retries.entry(inst).or_insert(0);
        if !give_up && *attempts < MAX_IO_RETRIES {
            *attempts += 1;
            self.submit_to_disk(now, inst, direction);
        } else {
            self.finish_instance(inst, RequestOutcome::Failed);
        }
    }

    fn read_deliver(
        &mut self,
        now: SimTime,
        inst: u32,
        tracker: &mut ReadTracker<'_>,
        adaptive: Option<&mut AdaptivePlanner>,
    ) {
        let semantic = self.instances[inst as usize].semantic;
        self.finish_instance(inst, RequestOutcome::Served);
        if self.completed_at.is_some() {
            return; // late block of a cancelled request: waste only
        }
        if tracker.receive(semantic) {
            self.blocks_at_completion = tracker.received();
            self.reception_overhead = if self.cfg.scheme == SchemeKind::RobuStore {
                tracker.received() as f64 / self.placement.k as f64 - 1.0
            } else {
                0.0
            };
            self.completed_at = Some(now + self.decode_tail());
            if self.cfg.read_cancellation {
                self.broadcast_cancel(now);
            }
            return;
        }
        // RRAID-A work stealing.
        if let Some(pl) = adaptive {
            let idle = pl.on_receive(semantic);
            for thief in idle {
                let Some(steal) = pl.plan_steal(thief, self.placement) else {
                    continue;
                };
                let at = now + self.half_rtt();
                let mut new_insts = Vec::with_capacity(steal.semantics.len());
                for &sem in &steal.semantics {
                    // Cancel the victim's copy if it is still cancellable.
                    if let Some(&victim_inst) = self.by_slot_sem.get(&(steal.victim, sem)) {
                        self.q.schedule(
                            at,
                            Ev::CancelOne {
                                slot: steal.victim,
                                inst: victim_inst,
                            },
                        );
                    }
                    let copy = self
                        .placement
                        .find_on_disk(steal.thief, sem)
                        .map(|pos| self.placement.per_disk[steal.thief][pos].copy)
                        .expect("planner only steals blocks the thief stores");
                    let ninst = self.new_instance(steal.thief, sem, copy);
                    self.by_slot_sem.insert((steal.thief, sem), ninst);
                    new_insts.push(ninst);
                }
                self.q.schedule(
                    at,
                    Ev::RequestsArrive {
                        slot: steal.thief,
                        insts: new_insts,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Write access
    // ------------------------------------------------------------------

    /// Run a write access to completion.
    ///
    /// For RAID-0/RRAID the instance set is exactly the placement and the
    /// write completes when everything is acknowledged. For RobuSTore the
    /// write is speculative: a per-disk pipeline of coded blocks is kept
    /// full (rateless encoding can always produce another block) until
    /// `target_blocks` are confirmed, then the rest is cancelled.
    pub fn run_write(mut self, target_blocks: usize) -> WriteResult {
        self.seed_background();
        let start = self.access_start();
        self.schedule_faults(start);
        self.q
            .schedule(start + self.cfg.cluster.metadata_overhead, Ev::Start);

        let speculative = self.cfg.scheme == SchemeKind::RobuStore;
        let slots = self.disk_ids.len();
        let mut confirmed = 0usize;
        let mut committed_per_slot: Vec<Vec<u32>> = vec![Vec::new(); slots];
        let mut next_coded: u32 = 0;
        let mut fixed_total = 0usize;

        while !self.done() {
            let Some((now, ev)) = self.q.pop() else {
                panic!(
                    "write simulation stalled: outstanding={}, confirmed={confirmed}",
                    self.outstanding
                );
            };
            match ev {
                Ev::Start => {
                    if speculative {
                        // Prime a WRITE_WINDOW-deep pipeline on every disk.
                        for _ in 0..WRITE_WINDOW {
                            for slot in 0..slots {
                                let coded = next_coded;
                                let inst = self.new_instance(slot, coded, 0);
                                next_coded += 1;
                                self.send_write(now, inst);
                            }
                        }
                    } else {
                        // Fixed layout: send everything, round-robin across
                        // slots so all disks start working immediately.
                        let max_len = self
                            .placement
                            .per_disk
                            .iter()
                            .map(|d| d.len())
                            .max()
                            .unwrap_or(0);
                        for pos in 0..max_len {
                            for slot in 0..slots {
                                if let Some(b) = self.placement.per_disk[slot].get(pos) {
                                    let inst = self.new_instance(slot, b.semantic, b.copy);
                                    self.send_write(now, inst);
                                    fixed_total += 1;
                                }
                            }
                        }
                    }
                }
                Ev::WriteArrive { inst } => {
                    let slot = self.instances[inst as usize].slot;
                    if self.slot_dead(slot) {
                        self.finish_instance(inst, RequestOutcome::Failed);
                    } else if self.completed_at.is_some() {
                        self.finish_instance(inst, RequestOutcome::CancelledBySpeculation);
                    } else {
                        self.submit_to_disk(now, inst, Direction::Write);
                    }
                }
                Ev::BgArrive { slot } => self.on_bg_arrive(now, slot),
                Ev::DiskDone { slot } => {
                    let gdisk = self.disk_ids[slot];
                    let (completion, next) = self.cluster.disk_mut(gdisk).on_complete(now);
                    if let Some(t) = next {
                        self.q.schedule(t, Ev::DiskDone { slot });
                    }
                    if completion.request.stream == FG_STREAM {
                        let inst = completion.request.tag as u32;
                        if completion.io_error {
                            self.handle_io_error(now, slot, inst, Direction::Write);
                        } else {
                            self.instances[inst as usize].state = InstState::InFlight;
                            self.q.schedule(now + self.half_rtt(), Ev::Ack { inst });
                        }
                    }
                }
                Ev::Ack { inst } => {
                    let slot = self.instances[inst as usize].slot;
                    let semantic = self.instances[inst as usize].semantic;
                    self.finish_instance(inst, RequestOutcome::Served);
                    if self.completed_at.is_some() {
                        continue; // block still landed, but after completion
                    }
                    confirmed += 1;
                    committed_per_slot[slot].push(semantic);
                    self.blocks_at_completion = confirmed;
                    let target = if speculative {
                        target_blocks
                    } else {
                        fixed_total
                    };
                    if confirmed >= target {
                        self.completed_at = Some(now);
                        self.broadcast_cancel(now);
                    } else if speculative {
                        // Refill this disk's pipeline with a fresh block.
                        let coded = next_coded;
                        let ninst = self.new_instance(slot, coded, 0);
                        next_coded += 1;
                        self.send_write(now, ninst);
                    }
                }
                Ev::CancelAll { slot } => self.on_cancel_all(slot),
                Ev::Fault { idx } => self.on_fault(now, idx),
                Ev::RequestsArrive { .. }
                | Ev::Deliver { .. }
                | Ev::NicDone { .. }
                | Ev::CancelOne { .. } => {
                    unreachable!("read events in a write access")
                }
            }
            self.check_unreachable();
        }

        if self.failed {
            return WriteResult {
                outcome: AccessOutcome {
                    data_bytes: self.cfg.data_bytes,
                    latency: self.q.now().max(start).since(start),
                    network_bytes: self.network_bytes,
                    blocks_at_completion: confirmed,
                    cache_hit_blocks: 0,
                    reception_overhead: 0.0,
                    failed: true,
                    request_log: std::mem::take(&mut self.request_log),
                },
                committed_per_slot,
            };
        }
        let completed_at = self.completed_at.expect("loop exits only when done");
        WriteResult {
            outcome: AccessOutcome {
                data_bytes: self.cfg.data_bytes,
                latency: completed_at.since(start),
                network_bytes: self.network_bytes,
                blocks_at_completion: self.blocks_at_completion,
                cache_hit_blocks: 0,
                reception_overhead: 0.0,
                failed: false,
                request_log: std::mem::take(&mut self.request_log),
            },
            committed_per_slot,
        }
    }
}
