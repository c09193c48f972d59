//! Network-on-chip models: an 8x8 wormhole-routed mesh with virtual
//! channels (Table 3), a fast analytic link-contention model, and a
//! chiplet topology with explicit die-to-die crossings.
//!
//! Three interchangeable implementations of [`NocModel`] are provided:
//!
//! * [`MeshNoc`] — flit-level wormhole routing: XY dimension-order routes,
//!   per-input virtual-channel buffers with credit back-pressure, output
//!   ports held by a packet until its tail flit passes, and priority
//!   arbitration where demand (and CLIP-critical prefetch) packets win
//!   against plain prefetch packets (the prefetch-aware NoC of the
//!   baseline). An optional two-node NUMA penalty
//!   ([`clip_types::NocConfig::numa_penalty`]) taxes link traversals that
//!   cross between the mesh's column halves.
//! * [`AnalyticNoc`] — link-schedule approximation with the same routes,
//!   serialization, and priorities, used for fast parameter sweeps.
//! * [`ChipletNoc`] — clusters of tiles on separate dies: cheap wide
//!   intra-chiplet links, and a narrow, high-latency die-to-die port pair
//!   per chiplet that serializes every inter-chiplet packet.
//!
//! Payloads are opaque `u64` message ids; the simulator keeps its own side
//! table.
//!
//! # Examples
//!
//! ```
//! use clip_noc::{MeshNoc, NocModel};
//! use clip_types::{NocConfig, Priority};
//!
//! let mut noc = MeshNoc::new(&NocConfig::default());
//! noc.send(0, 63, 8, Priority::Demand, 0xCAFE, 0).expect("room");
//! let mut delivered = Vec::new();
//! for now in 0..200 {
//!     delivered.extend(noc.tick(now));
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].payload, 0xCAFE);
//! ```

use clip_types::{Cycle, Fnv64, NocConfig, Priority};
use std::collections::VecDeque;
use std::fmt;

/// A packet delivered to its destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Destination node index.
    pub node: usize,
    /// Opaque message id supplied at `send`.
    pub payload: u64,
    /// Cycle the tail flit arrived.
    pub done_cycle: Cycle,
}

/// Error returned when a node's injection queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocFullError;

impl fmt::Display for NocFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("noc injection queue is full")
    }
}

impl std::error::Error for NocFullError {}

/// Common interface of the three NoC implementations.
pub trait NocModel {
    /// Injects a packet of `flits` flits from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`NocFullError`] when the source injection queue is full.
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError>;

    /// Advances one cycle; returns packets fully delivered this cycle.
    fn tick(&mut self, now: Cycle) -> Vec<Delivered>;

    /// Quiescence hook: the earliest cycle `>= now` at which `tick` would
    /// do anything, or `None` when nothing is in flight. Implementations
    /// may answer conservatively (`Some(now)` whenever anything is
    /// buffered); they must never claim a later cycle than the true next
    /// state change.
    fn next_activity(&self, now: Cycle) -> Option<Cycle>;

    /// Number of nodes in the network.
    fn nodes(&self) -> usize;

    /// Packets delivered so far.
    fn delivered_count(&self) -> u64;

    /// Sum of packet latencies (injection → tail delivery), for averages.
    fn total_latency(&self) -> u64;

    /// Total flit-hops traversed (link crossings), for energy accounting.
    fn flit_hops(&self) -> u64;

    /// Flit/credit conservation audit: everything injected into the
    /// network must be buffered somewhere or delivered. With `full`, also
    /// scans per-buffer occupancy against the credit limit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn audit(&self, full: bool) -> Result<(), String>;

    /// Fault injection: silently discards one in-flight flit (mesh) or
    /// pending delivery (analytic), as a corrupted link would — without
    /// touching the injection accounting, so [`NocModel::audit`] reports
    /// the loss. `selector` picks deterministically among the candidates.
    /// Returns false when nothing is in flight to drop.
    fn inject_drop_flit(&mut self, selector: u64) -> bool;

    /// Folds the fabric's in-flight state into a divergence-localization
    /// fingerprint (see the `clip-sim` fingerprint layer). With `full`,
    /// per-entry state is hashed; otherwise only the O(1) conservation
    /// balances. Deterministic runs must produce identical folds.
    fn fingerprint(&self, h: &mut Fnv64, full: bool);
}

const PORTS: usize = 5; // N, S, E, W, Local
const LOCAL: usize = 4;
const INJECTION_QUEUE: usize = 64;
/// No input slot: an unowned output port.
const NO_SLOT: u8 = u8::MAX;

/// Statistics index of a priority: [prefetch, writeback, demand].
#[inline]
fn class_index(p: Priority) -> usize {
    match p {
        Priority::Prefetch => 0,
        Priority::Writeback => 1,
        Priority::Demand => 2,
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flit {
    ready_at: Cycle,
    /// The packet's slot in [`MeshNoc::packets`].
    packet: u32,
    /// The packet's destination node.
    dst: u32,
    /// Global index of the input buffer this flit enters at the next
    /// router; an idle sink buffer when `out_port` is [`LOCAL`].
    next: u32,
    /// Output port at the router holding the flit, routed on entry.
    out_port: u8,
    /// Arbitration class, the [`class_index`] of its priority: demands
    /// beat writebacks beat plain prefetches.
    prio: u8,
    vc: u8,
    is_tail: bool,
}

#[derive(Debug, Clone)]
struct PacketInfo {
    /// Send sequence number: the packet's id for VC choice and the
    /// fingerprint, independent of which table slot it occupies.
    seq: u32,
    dst: usize,
    payload: u64,
    priority: Priority,
    injected_at: Cycle,
    /// Virtual channel, picked from `seq` once at `send`.
    vc: u8,
}

#[derive(Debug, Clone)]
struct Router {
    /// Bit `slot` is set while input buffer `slot` holds a flit.
    occupied: u64,
    /// Which input slot currently owns each output port (wormhole lock),
    /// or [`NO_SLOT`].
    out_owner: [u8; PORTS],
    /// Round-robin pointer (an input slot) per output port.
    rr: [u8; PORTS],
}

/// One directed link, leaving a router through one of its ports.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Neighbor node at the far end (unused for the local port and off
    /// the mesh edge).
    to: u32,
    /// Global index of the VC-0 input buffer this link feeds at `to`: a
    /// flit on VC `vc` enters buffer `next_base + vc`. The local port's
    /// entry (and an off-edge one) names the idle sink instead.
    next_base: u32,
    /// The slot of that VC-0 buffer within router `to`.
    in_slot: u8,
    /// Cycles until a flit sent now is ready at `to`: the wire, the
    /// router pipeline and any NUMA crossing tax.
    delay: Cycle,
}

/// One switch-allocation grant: `slot`'s head flit at `node` leaves
/// through `port`.
#[derive(Debug, Clone, Copy, Default)]
struct Move {
    node: u32,
    slot: u8,
    port: u8,
}

/// Flit-level wormhole mesh with XY routing and VC credit flow control.
///
/// A router's input buffers are its *slots*, `port * virtual_channels +
/// vc`, tracked in a 64-bit occupancy mask (hence
/// [`NocConfig::MAX_VIRTUAL_CHANNELS`]). Every buffer is a ring of
/// `vc_buffer_flits` slots in one flat flit array, with a byte each for
/// its head position, tail position and length (hence
/// [`NocConfig::MAX_VC_BUFFER_FLITS`]). A flit is routed once, when it
/// enters a router, from a node × destination port table, and each busy
/// router is arbitrated in one branch-free pass over its occupied slots.
#[derive(Debug, Clone)]
pub struct MeshNoc {
    cfg: NocConfig,
    nodes: usize,
    /// Input slots per router: `PORTS * virtual_channels`.
    slots: usize,
    /// Ring capacity of each input buffer: `vc_buffer_flits`.
    depth: usize,
    /// Every input buffer's ring: buffer `b = node * slots + slot` owns
    /// `flits[b * depth..(b + 1) * depth]`.
    flits: Vec<Flit>,
    /// Per buffer, the ring position of its head flit.
    head: Vec<u8>,
    /// Per buffer, the ring position the next flit is written to:
    /// `(head + len) % depth`, kept so the audit can check the other two.
    tail: Vec<u8>,
    /// Per buffer, the flits it holds. The last `virtual_channels`
    /// entries are the idle sink a flit leaving through its local port
    /// names as its next buffer; they stay 0, so that flit's credit check
    /// passes without a branch.
    len: Vec<u8>,
    routers: Vec<Router>,
    /// XY output port (0=N(y-1), 1=S(y+1), 2=E(x+1), 3=W(x-1), 4=Local)
    /// per `node * nodes + dst`.
    route: Vec<u8>,
    /// Links, indexed `node * PORTS + port`.
    links: Vec<Link>,
    /// One entry per packet in flight; a slot is recycled through
    /// `free_packets` once its tail flit delivers.
    packets: Vec<PacketInfo>,
    free_packets: Vec<u32>,
    /// Packets ever accepted by `send` (the next sequence number).
    sent: u64,
    /// Per-node queues of packets waiting to inject.
    inject: Vec<VecDeque<(u32, usize)>>, // (packet slot, flits_remaining)
    /// Flits held in router buffers, over all routers.
    buffered: usize,
    /// Packets waiting in injection queues, over all nodes.
    injecting: usize,
    /// Room for the moves one tick can decide, one per (router, port);
    /// kept to reuse the allocation.
    moves: Vec<Move>,
    delivered_count: u64,
    total_latency: u64,
    flit_hops: u64,
    /// Flits that entered the network fabric (conservation audit).
    flits_injected: u64,
    /// Flits that reached their destination's local port (conservation
    /// audit).
    flits_delivered: u64,
    /// Delivered packets per priority class [prefetch, writeback, demand].
    delivered_by_class: [u64; 3],
    /// Latency sums per priority class, same order.
    latency_by_class: [u64; 3],
    /// Partially arrived packets per destination node: (packet slot,
    /// flits received so far).
    arriving: Vec<Vec<(u32, u32)>>,
}

impl MeshNoc {
    /// Builds a mesh from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no nodes or more input buffers than a
    /// `u32` indexes, if `virtual_channels` is not in
    /// `1..=NocConfig::MAX_VIRTUAL_CHANNELS`, or if `vc_buffer_flits` is
    /// not in `1..=NocConfig::MAX_VC_BUFFER_FLITS`.
    pub fn new(cfg: &NocConfig) -> Self {
        let (cols, rows) = (cfg.mesh_cols, cfg.mesh_rows);
        let n = cols * rows;
        assert!(n > 0, "mesh must have nodes");
        assert!(
            (1..=NocConfig::MAX_VIRTUAL_CHANNELS).contains(&cfg.virtual_channels),
            "virtual channel count out of range"
        );
        assert!(
            (1..=NocConfig::MAX_VC_BUFFER_FLITS).contains(&cfg.vc_buffer_flits),
            "vc buffer depth out of range"
        );
        let vcs = cfg.virtual_channels;
        let slots = PORTS * vcs;
        assert!(
            u32::try_from(n * slots + vcs).is_ok(),
            "mesh too large for 32-bit buffer indices"
        );
        let sink = (n * slots) as u32;
        let half = cols / 2;
        let mut links = Vec::with_capacity(n * PORTS);
        for node in 0..n {
            let (x, y) = (node % cols, node / cols);
            for port in 0..PORTS {
                let to = match port {
                    0 if y > 0 => node - cols,
                    1 if y + 1 < rows => node + cols,
                    2 if x + 1 < cols => node + 1,
                    3 if x > 0 => node - 1,
                    _ => usize::MAX,
                };
                if to == usize::MAX {
                    links.push(Link {
                        to: u32::MAX,
                        next_base: sink,
                        in_slot: 0,
                        delay: 0,
                    });
                    continue;
                }
                // Two-node NUMA asymmetry: a traversal crossing between
                // the mesh's column halves (the socket boundary) pays the
                // configured extra wire latency. Inert at the default 0.
                let numa = if (x < half) != (to % cols < half) {
                    cfg.numa_penalty
                } else {
                    0
                };
                // The input port a flit arrives on at the neighbor.
                let in_slot = [1, 0, 3, 2][port] * vcs;
                links.push(Link {
                    to: to as u32,
                    next_base: (to * slots + in_slot) as u32,
                    in_slot: in_slot as u8,
                    delay: 1 + cfg.router_stages + numa,
                });
            }
        }
        let mut route = Vec::with_capacity(n * n);
        for node in 0..n {
            let (x, y) = (node % cols, node / cols);
            for dst in 0..n {
                let (dx, dy) = (dst % cols, dst / cols);
                route.push(if x < dx {
                    2
                } else if x > dx {
                    3
                } else if y < dy {
                    1
                } else if y > dy {
                    0
                } else {
                    LOCAL as u8
                });
            }
        }
        let router = Router {
            occupied: 0,
            out_owner: [NO_SLOT; PORTS],
            rr: [0; PORTS],
        };
        let depth = cfg.vc_buffer_flits;
        MeshNoc {
            cfg: *cfg,
            nodes: n,
            slots,
            depth,
            flits: vec![Flit::default(); n * slots * depth],
            head: vec![0; n * slots],
            tail: vec![0; n * slots],
            len: vec![0; n * slots + vcs],
            routers: vec![router; n],
            route,
            links,
            packets: Vec::new(),
            free_packets: Vec::new(),
            sent: 0,
            inject: vec![VecDeque::new(); n],
            buffered: 0,
            injecting: 0,
            moves: vec![Move::default(); n * PORTS],
            delivered_count: 0,
            total_latency: 0,
            flit_hops: 0,
            flits_injected: 0,
            flits_delivered: 0,
            delivered_by_class: [0; 3],
            latency_by_class: [0; 3],
            arriving: vec![Vec::new(); n],
        }
    }

    /// XY route: the output port at `node` toward `dst`.
    #[inline]
    fn route(&self, node: usize, dst: usize) -> usize {
        usize::from(self.route[node * self.nodes + dst])
    }

    /// Routes `flit` for the router at `node` it is entering: sets its
    /// output port and the input buffer it will take at the next router.
    #[inline]
    fn enter(&self, node: usize, mut flit: Flit) -> Flit {
        let port = self.route(node, flit.dst as usize);
        flit.out_port = port as u8;
        flit.next = self.links[node * PORTS + port].next_base + u32::from(flit.vc);
        flit
    }

    /// Position `pos < 2 * depth` reduced into a ring of `depth` slots.
    #[inline]
    fn wrap(&self, pos: usize) -> usize {
        if pos >= self.depth {
            pos - self.depth
        } else {
            pos
        }
    }

    /// The index in `flits` of the `i`-th flit of buffer `b`.
    #[inline]
    fn ring_pos(&self, b: usize, i: usize) -> usize {
        b * self.depth + self.wrap(usize::from(self.head[b]) + i)
    }

    /// The flits of buffer `b`, head first.
    fn ring(&self, b: usize) -> impl Iterator<Item = &Flit> {
        (0..usize::from(self.len[b])).map(move |i| &self.flits[self.ring_pos(b, i)])
    }

    /// Appends `flit` to buffer `b`, which has room.
    #[inline]
    fn push(&mut self, b: usize, flit: Flit) {
        let tail = usize::from(self.tail[b]);
        self.flits[b * self.depth + tail] = flit;
        self.tail[b] = self.wrap(tail + 1) as u8;
        self.len[b] += 1;
    }

    /// Removes and returns the head flit of buffer `b`, which holds one.
    #[inline]
    fn pop(&mut self, b: usize) -> Flit {
        let pos = self.ring_pos(b, 0);
        self.head[b] = self.wrap(usize::from(self.head[b]) + 1) as u8;
        self.len[b] -= 1;
        self.flits[pos]
    }
}

impl NocModel for MeshNoc {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        if self.inject[src].len() >= INJECTION_QUEUE {
            return Err(NocFullError);
        }
        let seq = self.sent as u32;
        let info = PacketInfo {
            seq,
            dst,
            payload,
            priority,
            injected_at: now,
            vc: (clip_types::hash64(u64::from(seq)) % self.cfg.virtual_channels as u64) as u8,
        };
        self.sent += 1;
        let slot = match self.free_packets.pop() {
            Some(slot) => {
                self.packets[slot as usize] = info;
                slot
            }
            None => {
                self.packets.push(info);
                (self.packets.len() - 1) as u32
            }
        };
        self.inject[src].push_back((slot, flits.max(1)));
        self.injecting += 1;
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        let mut out = Vec::new();
        if self.buffered == 0 && self.injecting == 0 {
            return out;
        }
        let depth = self.depth;
        let slots = self.slots;

        // 1. Injection: move flits from injection queues into the local
        //    input port as buffer space allows (one flit per cycle).
        if self.injecting > 0 {
            for node in 0..self.nodes {
                let Some(&(pid, remaining)) = self.inject[node].front() else {
                    continue;
                };
                let info = &self.packets[pid as usize];
                let slot = LOCAL * self.cfg.virtual_channels + usize::from(info.vc);
                let b = node * slots + slot;
                if usize::from(self.len[b]) >= depth {
                    continue;
                }
                let is_tail = remaining == 1;
                let flit = self.enter(
                    node,
                    Flit {
                        ready_at: now + self.cfg.router_stages,
                        packet: pid,
                        dst: info.dst as u32,
                        next: 0,
                        out_port: 0,
                        prio: class_index(info.priority) as u8,
                        vc: info.vc,
                        is_tail,
                    },
                );
                self.push(b, flit);
                self.routers[node].occupied |= 1 << slot;
                self.buffered += 1;
                self.flits_injected += 1;
                if is_tail {
                    self.inject[node].pop_front();
                    self.injecting -= 1;
                } else {
                    self.inject[node]
                        .front_mut()
                        .expect("checked non-empty above")
                        .1 -= 1;
                }
            }
        }

        // 2. Switch allocation on pre-move occupancy: one pass per busy
        //    router over its occupied input slots picks, per output port,
        //    the ready head flit with downstream credit that wins on
        //    priority class, then round-robin distance from the port's
        //    pointer. Every candidate's `(key << 8) | slot` is zeroed
        //    unless it may move, and the port keeps the maximum: keys are
        //    distinct, so the winner is the same in any scan order. A
        //    flit moved this cycle cannot move again.
        let total = slots as u32;
        let mut moves = std::mem::take(&mut self.moves);
        let mut granted = 0;
        for (node, r) in self.routers.iter().enumerate() {
            if r.occupied == 0 {
                continue;
            }
            let base = node * slots;
            // Per output port, the winner's `(key << 8) | slot`; 0 for none.
            let mut best = [0u32; PORTS];
            let mut mask = r.occupied;
            while mask != 0 {
                let slot = mask.trailing_zeros();
                mask &= mask - 1;
                let b = base + slot as usize;
                let head = &self.flits[self.ring_pos(b, 0)];
                let port = usize::from(head.out_port);
                // Wormhole: an owned output port only takes its owner.
                let owner = r.out_owner[port];
                let may_move = (head.ready_at <= now)
                    & ((owner == NO_SLOT) | (u32::from(owner) == slot))
                    & (usize::from(self.len[head.next as usize]) < depth);
                let rank = slot + total - u32::from(r.rr[port]);
                let rank = if rank >= total { rank - total } else { rank };
                let key = (u32::from(head.prio) << 8) | (total - rank);
                best[port] = best[port].max(((key << 8) | slot) * u32::from(may_move));
            }
            for (port, &won) in best.iter().enumerate() {
                moves[granted] = Move {
                    node: node as u32,
                    slot: won as u8,
                    port: port as u8,
                };
                granted += usize::from(won != 0);
            }
        }

        // 3. Apply moves, in (router, port) order.
        for &Move { node, slot, port } in &moves[..granted] {
            let (node, slot, port) = (node as usize, usize::from(slot), usize::from(port));
            let b = node * slots + slot;
            let flit = self.pop(b);
            let r = &mut self.routers[node];
            r.occupied &= !(u64::from(self.len[b] == 0) << slot);
            self.buffered -= 1;
            r.rr[port] = if slot + 1 == slots { 0 } else { slot as u8 + 1 };
            // Maintain the wormhole lock.
            r.out_owner[port] = if flit.is_tail { NO_SLOT } else { slot as u8 };
            if port == LOCAL {
                // Arrived at destination.
                self.flits_delivered += 1;
                let arriving = &mut self.arriving[node];
                let partial = arriving.iter().position(|&(p, _)| p == flit.packet);
                if !flit.is_tail {
                    match partial {
                        Some(i) => arriving[i].1 += 1,
                        None => arriving.push((flit.packet, 1)),
                    }
                    continue;
                }
                if let Some(i) = partial {
                    arriving.remove(i);
                }
                let info = &self.packets[flit.packet as usize];
                self.free_packets.push(flit.packet);
                self.delivered_count += 1;
                let lat = now.saturating_sub(info.injected_at);
                self.total_latency += lat;
                let class = class_index(info.priority);
                self.delivered_by_class[class] += 1;
                self.latency_by_class[class] += lat;
                out.push(Delivered {
                    node: info.dst,
                    payload: info.payload,
                    done_cycle: now,
                });
            } else {
                self.flit_hops += 1;
                let link = self.links[node * PORTS + port];
                let next = flit.next as usize;
                let flit = self.enter(
                    link.to as usize,
                    Flit {
                        ready_at: now + link.delay,
                        ..flit
                    },
                );
                self.push(next, flit);
                self.routers[link.to as usize].occupied |=
                    1 << (usize::from(link.in_slot) + usize::from(flit.vc));
                self.buffered += 1;
            }
        }
        self.moves = moves;
        out
    }

    /// Conservative: any buffered or waiting-to-inject flit keeps the
    /// mesh active every cycle (wormhole arbitration is stateful enough
    /// that modelling per-flit ready times here would be fragile); an
    /// empty fabric is fully idle — `tick` is then a pure no-op.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.buffered > 0 || self.injecting > 0 {
            Some(now)
        } else {
            None
        }
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn total_latency(&self) -> u64 {
        self.total_latency
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn audit(&self, full: bool) -> Result<(), String> {
        let buffered = self.buffered as u64;
        if self.flits_injected != self.flits_delivered + buffered {
            return Err(format!(
                "flit conservation broken: {} injected but {} delivered + {} buffered (lost {})",
                self.flits_injected,
                self.flits_delivered,
                buffered,
                self.flits_injected as i64 - (self.flits_delivered + buffered) as i64
            ));
        }
        if self.delivered_count > self.sent {
            return Err(format!(
                "delivered {} packets but only {} were ever sent",
                self.delivered_count, self.sent
            ));
        }
        if full {
            let vcs = self.cfg.virtual_channels;
            let mut actual = 0usize;
            for (node, r) in self.routers.iter().enumerate() {
                for slot in 0..self.slots {
                    let (port, vc) = (slot / vcs, slot % vcs);
                    let b = node * self.slots + slot;
                    let len = usize::from(self.len[b]);
                    if len > self.depth {
                        return Err(format!(
                            "credit overrun at router {node} port {port} vc {vc}: \
                             {len} flits in a {}-flit buffer",
                            self.depth
                        ));
                    }
                    if (len > 0) != (r.occupied >> slot & 1 == 1) {
                        return Err(format!(
                            "router {node} occupancy mask drifted at port {port} vc {vc}: \
                             {len} flits buffered"
                        ));
                    }
                    let (head, tail) = (usize::from(self.head[b]), usize::from(self.tail[b]));
                    if head >= self.depth || (head + len) % self.depth != tail {
                        return Err(format!(
                            "router {node} ring drifted at port {port} vc {vc}: \
                             head {head} + {len} flits but tail {tail} in a {}-flit ring",
                            self.depth
                        ));
                    }
                    actual += len;
                }
            }
            if actual != self.buffered {
                return Err(format!(
                    "buffered-flit counter drifted: cached {} vs actual {actual}",
                    self.buffered
                ));
            }
            if let Some(vc) = self.len[self.nodes * self.slots..]
                .iter()
                .position(|&l| l != 0)
            {
                return Err(format!("idle sink buffer {vc} holds flits"));
            }
            let queued: usize = self.inject.iter().map(VecDeque::len).sum();
            if queued != self.injecting {
                return Err(format!(
                    "injection counter drifted: cached {} vs actual {queued}",
                    self.injecting
                ));
            }
            let live = (self.packets.len() - self.free_packets.len()) as u64;
            if live != self.sent - self.delivered_count {
                return Err(format!(
                    "packet table drifted: {live} live entries but {} packets in flight",
                    self.sent - self.delivered_count
                ));
            }
        }
        Ok(())
    }

    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        let candidates: u64 = self
            .routers
            .iter()
            .map(|r| u64::from(r.occupied.count_ones()))
            .sum();
        if candidates == 0 {
            return false;
        }
        // The victim is the k-th non-empty buffer in (node, port, vc)
        // order.
        let mut k = selector % candidates;
        for node in 0..self.nodes {
            let occupied = self.routers[node].occupied;
            let here = u64::from(occupied.count_ones());
            if k >= here {
                k -= here;
                continue;
            }
            let mut mask = occupied;
            for _ in 0..k {
                mask &= mask - 1;
            }
            let slot = mask.trailing_zeros() as usize;
            let b = node * self.slots + slot;
            self.pop(b);
            if self.len[b] == 0 {
                self.routers[node].occupied &= !(1 << slot);
            }
            self.buffered -= 1;
            return true;
        }
        unreachable!("the victim index is below the candidate count")
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        h.write_u64(self.flits_injected)
            .write_u64(self.flits_delivered)
            .write_u64(self.delivered_count)
            .write_usize(self.injecting);
        if !full {
            return;
        }
        for (node, r) in self.routers.iter().enumerate() {
            if r.occupied == 0 {
                continue;
            }
            let bufs = node * self.slots..(node + 1) * self.slots;
            h.write_usize(node)
                .write_usize(self.len[bufs.clone()].iter().map(|&l| usize::from(l)).sum());
            for b in bufs {
                for f in self.ring(b) {
                    h.write_u64(u64::from(self.packets[f.packet as usize].seq));
                }
            }
        }
        for (node, q) in self.inject.iter().enumerate() {
            for &(packet, rem) in q {
                h.write_usize(node)
                    .write_u64(u64::from(self.packets[packet as usize].seq))
                    .write_usize(rem);
            }
        }
        for &(packet, got) in self.arriving.iter().flatten() {
            h.write_u64(u64::from(self.packets[packet as usize].seq))
                .write_u64(u64::from(got));
        }
    }
}

impl MeshNoc {
    /// Average delivery latency of packets in a priority class, or `None`
    /// when no packet of that class has arrived yet. This is the signal
    /// behind the criticality-conscious NoC: demand-class packets (which
    /// include CLIP-critical prefetches) should see lower latency than
    /// plain prefetch packets under contention.
    pub fn avg_latency_for(&self, priority: Priority) -> Option<f64> {
        let class = class_index(priority);
        if self.delivered_by_class[class] == 0 {
            None
        } else {
            Some(self.latency_by_class[class] as f64 / self.delivered_by_class[class] as f64)
        }
    }

    /// Packets delivered in a priority class.
    pub fn delivered_for(&self, priority: Priority) -> u64 {
        self.delivered_by_class[class_index(priority)]
    }
}

/// The deliveries a link-schedule fabric fixed at `send` time, shared by
/// [`AnalyticNoc`] and [`ChipletNoc`]. The earliest one is cached, so a
/// tick before it returns at once and the quiescence answer is O(1).
#[derive(Debug, Clone)]
struct DeliverySchedule {
    pending: Vec<(Cycle, Delivered)>,
    /// No pending delivery is due before this cycle (`Cycle::MAX` when
    /// none is pending). Exact after a send or a delivering tick; a
    /// dropped delivery may leave it early, which only costs one scan.
    earliest: Cycle,
}

impl DeliverySchedule {
    fn new() -> Self {
        DeliverySchedule {
            pending: Vec::new(),
            earliest: Cycle::MAX,
        }
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn push(&mut self, d: Delivered) {
        self.earliest = self.earliest.min(d.done_cycle);
        self.pending.push((d.done_cycle, d));
    }

    /// Removes and returns every delivery due by `now`, in the order the
    /// uncached scan produced, recomputing the earliest one left.
    fn take_due(&mut self, now: Cycle) -> Vec<Delivered> {
        let mut out = Vec::new();
        if now < self.earliest {
            return out;
        }
        let mut earliest = Cycle::MAX;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                out.push(self.pending.swap_remove(i).1);
            } else {
                earliest = earliest.min(self.pending[i].0);
                i += 1;
            }
        }
        self.earliest = earliest;
        out
    }

    /// The earliest pending `done_cycle` (early only after a dropped
    /// delivery), clamped to `now`: an overdue delivery fires on the very
    /// next tick.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        (!self.pending.is_empty()).then(|| self.earliest.max(now))
    }

    /// Checks the cached earliest delivery against every pending one.
    fn audit(&self) -> Result<(), String> {
        match self.pending.iter().find(|&&(done, _)| done < self.earliest) {
            Some(&(done, d)) => Err(format!(
                "earliest-delivery cache drifted: cached {} but the packet to node {} \
                 is due at {done}",
                self.earliest, d.node
            )),
            None => Ok(()),
        }
    }

    fn drop_one(&mut self, selector: u64) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let victim = (selector % self.pending.len() as u64) as usize;
        self.pending.remove(victim);
        true
    }

    fn fingerprint(&self, h: &mut Fnv64) {
        for &(done, d) in &self.pending {
            h.write_u64(done)
                .write_usize(d.node)
                .write_u64(d.payload)
                .write_u64(d.done_cycle);
        }
    }
}

/// Maximum cycles of backlog an analytic link may accumulate before the
/// model back-pressures the sender. Without this bound a saturated
/// injection rate would diverge (every delivery scheduled further and
/// further out), which a real wormhole mesh's finite buffers prevent.
const ANALYTIC_MAX_BACKLOG: Cycle = 4096;

/// Link-schedule analytic mesh: same XY routes and per-link serialization,
/// contention approximated by per-link busy windows with priority-ordered
/// injection; used for wide sweeps. In perfbench's traced passes on a
/// 2-vCPU Xeon VM it cost about 14 ns per flit-hop on `dense-16c`, against
/// about 100 ns for [`MeshNoc`] on `dense-64c-mesh`.
#[derive(Debug, Clone)]
pub struct AnalyticNoc {
    cfg: NocConfig,
    /// busy-until per directed link, indexed `node * 4 + port`.
    link_free: Vec<Cycle>,
    deliveries: DeliverySchedule,
    delivered_count: u64,
    total_latency: u64,
    flit_hops: u64,
    /// Packets accepted for delivery (conservation audit).
    injected: u64,
}

impl AnalyticNoc {
    /// Builds the analytic mesh.
    pub fn new(cfg: &NocConfig) -> Self {
        let n = cfg.mesh_cols * cfg.mesh_rows;
        AnalyticNoc {
            cfg: *cfg,
            link_free: vec![0; n * 4],
            deliveries: DeliverySchedule::new(),
            delivered_count: 0,
            total_latency: 0,
            flit_hops: 0,
            injected: 0,
        }
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.cfg.mesh_cols, node / self.cfg.mesh_cols)
    }
}

impl NocModel for AnalyticNoc {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        // Back-pressure: refuse injection when the first link on the route
        // is already backlogged beyond the horizon (finite buffering).
        if x != dx || y != dy {
            let first_port = if x < dx {
                2
            } else if x > dx {
                3
            } else if y < dy {
                1
            } else {
                0
            };
            let node = y * self.cfg.mesh_cols + x;
            if self.link_free[node * 4 + first_port] > now + ANALYTIC_MAX_BACKLOG {
                return Err(NocFullError);
            }
        }
        let mut t = now;
        let hop = 1 + self.cfg.router_stages;
        // Plain prefetches yield: they see links as busy slightly longer,
        // approximating losing arbitration to demand traffic.
        let penalty = if priority == Priority::Prefetch {
            flits as u64
        } else {
            0
        };
        let mut advance = |x: &mut usize, y: &mut usize, port: usize, t: &mut Cycle| {
            let node = *y * self.cfg.mesh_cols + *x;
            let li = node * 4 + port;
            let start = (*t).max(self.link_free[li].saturating_add(penalty));
            self.link_free[li] = start + flits as u64;
            *t = start + hop;
            match port {
                0 => *y -= 1,
                1 => *y += 1,
                2 => *x += 1,
                _ => *x -= 1,
            }
        };
        while x != dx {
            let port = if x < dx { 2 } else { 3 };
            advance(&mut x, &mut y, port, &mut t);
        }
        while y != dy {
            let port = if y < dy { 1 } else { 0 };
            advance(&mut x, &mut y, port, &mut t);
        }
        let hops = (self.coords(src).0 as i64 - self.coords(dst).0 as i64).unsigned_abs()
            + (self.coords(src).1 as i64 - self.coords(dst).1 as i64).unsigned_abs();
        self.flit_hops += hops * flits as u64;
        let done = t + flits as u64; // tail serialization
        self.injected += 1;
        self.deliveries.push(Delivered {
            node: dst,
            payload,
            done_cycle: done,
        });
        self.total_latency += done - now;
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        let out = self.deliveries.take_due(now);
        self.delivered_count += out.len() as u64;
        out
    }

    /// Exact: deliveries are fully scheduled at `send` time, so the next
    /// activity is the earliest pending `done_cycle` (clamped to `now` —
    /// an overdue delivery fires on the very next tick).
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.deliveries.next_activity(now)
    }

    fn nodes(&self) -> usize {
        self.cfg.mesh_cols * self.cfg.mesh_rows
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn total_latency(&self) -> u64 {
        self.total_latency
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn audit(&self, full: bool) -> Result<(), String> {
        let outstanding = self.deliveries.len() as u64;
        if self.injected != self.delivered_count + outstanding {
            return Err(format!(
                "packet conservation broken: {} injected but {} delivered + {} pending (lost {})",
                self.injected,
                self.delivered_count,
                outstanding,
                self.injected as i64 - (self.delivered_count + outstanding) as i64
            ));
        }
        if full {
            self.deliveries.audit()?;
        }
        Ok(())
    }

    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        self.deliveries.drop_one(selector)
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        h.write_u64(self.injected)
            .write_u64(self.delivered_count)
            .write_usize(self.deliveries.len());
        if !full {
            return;
        }
        self.deliveries.fingerprint(h);
        for &free in &self.link_free {
            h.write_u64(free);
        }
    }
}

/// Chiplet topology: the node space is partitioned into clusters of
/// [`clip_types::NocConfig::chiplet_cluster`] consecutive nodes, each
/// modelling one die. Traffic within a die crosses one cheap, wide local
/// link; traffic between dies additionally crosses a narrow die-to-die
/// port pair — [`clip_types::NocConfig::d2d_latency`] cycles of wire/PHY
/// latency plus [`clip_types::NocConfig::d2d_flit_cycles`] serialization
/// cycles *per flit* on both the source die's egress port and the
/// destination die's ingress port.
///
/// Like [`AnalyticNoc`] this is a link-schedule model: deliveries are
/// fully scheduled at `send` time, so [`ChipletNoc::next_activity`] is
/// exact, conservation is `injected == delivered + pending`, and
/// [`ChipletNoc::inject_drop_flit`] removes a scheduled delivery without
/// touching the injection count (which the audit then reports). The
/// narrow crossing is where bandwidth-constrained prefetching bites:
/// inter-die prefetch traffic queues behind demand traffic on the d2d
/// ports, moving the bandwidth cliff the paper's argument rests on.
#[derive(Debug, Clone)]
pub struct ChipletNoc {
    cfg: NocConfig,
    nodes: usize,
    /// Nodes per die (>= 1).
    cluster_nodes: usize,
    /// busy-until of each die's internal link fabric.
    local_free: Vec<Cycle>,
    /// busy-until of each die's d2d egress port.
    d2d_out_free: Vec<Cycle>,
    /// busy-until of each die's d2d ingress port.
    d2d_in_free: Vec<Cycle>,
    deliveries: DeliverySchedule,
    delivered_count: u64,
    total_latency: u64,
    flit_hops: u64,
    /// Packets accepted for delivery (conservation audit).
    injected: u64,
    /// Packets that crossed a die boundary (topology statistics).
    d2d_crossings: u64,
}

impl ChipletNoc {
    /// Builds the chiplet fabric over the same node space as the mesh
    /// (`mesh_cols * mesh_rows` nodes).
    ///
    /// # Panics
    ///
    /// Panics if the node space is empty or `chiplet_cluster` is zero.
    pub fn new(cfg: &NocConfig) -> Self {
        let nodes = cfg.mesh_cols * cfg.mesh_rows;
        assert!(nodes > 0, "chiplet fabric must have nodes");
        assert!(cfg.chiplet_cluster > 0, "cluster size must be non-zero");
        let clusters = nodes.div_ceil(cfg.chiplet_cluster);
        ChipletNoc {
            cfg: *cfg,
            nodes,
            cluster_nodes: cfg.chiplet_cluster,
            local_free: vec![0; clusters],
            d2d_out_free: vec![0; clusters],
            d2d_in_free: vec![0; clusters],
            deliveries: DeliverySchedule::new(),
            delivered_count: 0,
            total_latency: 0,
            flit_hops: 0,
            injected: 0,
            d2d_crossings: 0,
        }
    }

    /// The die a node lives on.
    #[inline]
    pub fn cluster_of(&self, node: usize) -> usize {
        node / self.cluster_nodes
    }

    /// Packets that crossed a die-to-die link so far.
    pub fn d2d_crossings(&self) -> u64 {
        self.d2d_crossings
    }
}

impl NocModel for ChipletNoc {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        assert!(src < self.nodes && dst < self.nodes, "node out of range");
        let flits = flits.max(1) as u64;
        let (sc, dc) = (self.cluster_of(src), self.cluster_of(dst));
        let hop = 1 + self.cfg.router_stages;
        // Plain prefetches yield, as on the other fabrics: they see every
        // shared resource as busy slightly longer, approximating lost
        // arbitration against demand traffic.
        let yielding = priority == Priority::Prefetch;
        let done = if src == dst {
            // Same tile: no fabric resources, just tail serialization.
            now + flits
        } else if sc == dc {
            // On-die: one wide local link.
            if self.local_free[sc] > now + ANALYTIC_MAX_BACKLOG {
                return Err(NocFullError);
            }
            let penalty = if yielding { flits } else { 0 };
            let start = now.max(self.local_free[sc].saturating_add(penalty));
            self.local_free[sc] = start + flits;
            self.flit_hops += flits;
            start + hop + flits
        } else {
            // Cross-die: local egress, then the narrow d2d port pair,
            // then local ingress on the destination die.
            if self.local_free[sc] > now + ANALYTIC_MAX_BACKLOG
                || self.d2d_out_free[sc] > now + ANALYTIC_MAX_BACKLOG
            {
                return Err(NocFullError);
            }
            let ser = flits * self.cfg.d2d_flit_cycles;
            let local_penalty = if yielding { flits } else { 0 };
            let d2d_penalty = if yielding { ser } else { 0 };
            let t1 = now.max(self.local_free[sc].saturating_add(local_penalty));
            self.local_free[sc] = t1 + flits;
            // The crossing needs both the source egress and destination
            // ingress ports; the later one gates the transfer.
            let t2 = (t1 + hop).max(
                self.d2d_out_free[sc]
                    .max(self.d2d_in_free[dc])
                    .saturating_add(d2d_penalty),
            );
            self.d2d_out_free[sc] = t2 + ser;
            self.d2d_in_free[dc] = t2 + ser;
            let t3 = (t2 + self.cfg.d2d_latency + ser).max(self.local_free[dc]);
            self.local_free[dc] = t3 + flits;
            self.flit_hops += flits * 3;
            self.d2d_crossings += 1;
            t3 + hop + flits
        };
        self.injected += 1;
        self.deliveries.push(Delivered {
            node: dst,
            payload,
            done_cycle: done,
        });
        self.total_latency += done - now;
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        let out = self.deliveries.take_due(now);
        self.delivered_count += out.len() as u64;
        out
    }

    /// Exact, like [`AnalyticNoc`]: deliveries are fully scheduled at
    /// `send` time, so the next activity is the earliest pending
    /// `done_cycle` (clamped to `now`).
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.deliveries.next_activity(now)
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn total_latency(&self) -> u64 {
        self.total_latency
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn audit(&self, full: bool) -> Result<(), String> {
        let outstanding = self.deliveries.len() as u64;
        if self.injected != self.delivered_count + outstanding {
            return Err(format!(
                "packet conservation broken: {} injected but {} delivered + {} pending (lost {})",
                self.injected,
                self.delivered_count,
                outstanding,
                self.injected as i64 - (self.delivered_count + outstanding) as i64
            ));
        }
        if self.d2d_crossings > self.injected {
            return Err(format!(
                "more d2d crossings ({}) than injected packets ({})",
                self.d2d_crossings, self.injected
            ));
        }
        if full {
            self.deliveries.audit()?;
        }
        Ok(())
    }

    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        self.deliveries.drop_one(selector)
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        h.write_u64(self.injected)
            .write_u64(self.delivered_count)
            .write_u64(self.d2d_crossings)
            .write_usize(self.deliveries.len());
        if !full {
            return;
        }
        self.deliveries.fingerprint(h);
        for free in [&self.local_free, &self.d2d_out_free, &self.d2d_in_free] {
            for &f in free {
                h.write_u64(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    fn drain(noc: &mut impl NocModel, upto: Cycle) -> Vec<Delivered> {
        let mut v = Vec::new();
        for now in 0..upto {
            v.extend(noc.tick(now));
        }
        v
    }

    #[test]
    fn mesh_delivers_single_packet() {
        let mut noc = MeshNoc::new(&cfg());
        noc.send(0, 63, 8, Priority::Demand, 7, 0).unwrap();
        let d = drain(&mut noc, 300);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 63);
        assert_eq!(d[0].payload, 7);
        // 14 hops * (1+2) + 8 flits ≈ 50+: sanity bounds.
        assert!(d[0].done_cycle >= 14, "too fast: {}", d[0].done_cycle);
        assert!(d[0].done_cycle <= 120, "too slow: {}", d[0].done_cycle);
    }

    #[test]
    fn mesh_local_delivery_works() {
        let mut noc = MeshNoc::new(&cfg());
        noc.send(5, 5, 1, Priority::Demand, 9, 0).unwrap();
        let d = drain(&mut noc, 50);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 5);
    }

    #[test]
    fn mesh_delivers_many_packets_all_pairs() {
        let mut noc = MeshNoc::new(&cfg());
        let mut sent = 0u64;
        for s in 0..16usize {
            for t in 0..16usize {
                noc.send(s * 4, t * 4 % 64, 2, Priority::Demand, sent, 0)
                    .unwrap();
                sent += 1;
            }
        }
        let d = drain(&mut noc, 3000);
        assert_eq!(d.len() as u64, sent, "all packets must arrive");
    }

    #[test]
    fn mesh_contention_slows_delivery() {
        // Many packets crossing the same central links vs a single packet.
        let mut solo = MeshNoc::new(&cfg());
        solo.send(0, 7, 8, Priority::Demand, 0, 0).unwrap();
        let d_solo = drain(&mut solo, 2000);
        let t_solo = d_solo[0].done_cycle;

        let mut busy = MeshNoc::new(&cfg());
        for i in 0..40u64 {
            busy.send(0, 7, 8, Priority::Demand, i, 0).unwrap();
        }
        let d_busy = drain(&mut busy, 5000);
        assert_eq!(d_busy.len(), 40);
        let t_last = d_busy.iter().map(|d| d.done_cycle).max().unwrap();
        assert!(
            t_last > t_solo * 5,
            "40 packets over one path must serialize: {t_last} vs {t_solo}"
        );
    }

    #[test]
    fn mesh_priority_demand_beats_prefetch() {
        let mut noc = MeshNoc::new(&cfg());
        // Flood with prefetch packets, then inject one demand from a
        // different source crossing the same column.
        for i in 0..30u64 {
            noc.send(0, 56, 8, Priority::Prefetch, i, 0).unwrap();
        }
        noc.send(8, 56, 8, Priority::Demand, 999, 0).unwrap();
        let d = drain(&mut noc, 6000);
        let demand_t = d.iter().find(|x| x.payload == 999).unwrap().done_cycle;
        let pf_last = d
            .iter()
            .filter(|x| x.payload != 999)
            .map(|x| x.done_cycle)
            .max()
            .unwrap();
        assert!(
            demand_t < pf_last,
            "demand should not finish last ({demand_t} vs {pf_last})"
        );
    }

    #[test]
    fn mesh_injection_backpressure() {
        let mut noc = MeshNoc::new(&cfg());
        let mut accepted = 0;
        for i in 0..200u64 {
            if noc.send(3, 60, 8, Priority::Demand, i, 0).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, INJECTION_QUEUE as u64);
    }

    #[test]
    fn analytic_matches_mesh_on_uncontended_latency() {
        let mut mesh = MeshNoc::new(&cfg());
        let mut ana = AnalyticNoc::new(&cfg());
        mesh.send(0, 63, 8, Priority::Demand, 1, 0).unwrap();
        ana.send(0, 63, 8, Priority::Demand, 1, 0).unwrap();
        let dm = drain(&mut mesh, 500)[0].done_cycle;
        let da = drain(&mut ana, 500)[0].done_cycle;
        let ratio = dm as f64 / da as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "models should agree within 2x uncontended: mesh={dm} analytic={da}"
        );
    }

    #[test]
    fn analytic_contention_accumulates() {
        let mut ana = AnalyticNoc::new(&cfg());
        for i in 0..40u64 {
            ana.send(0, 7, 8, Priority::Demand, i, 0).unwrap();
        }
        let d = drain(&mut ana, 5000);
        assert_eq!(d.len(), 40);
        let spread = d.iter().map(|x| x.done_cycle).max().unwrap()
            - d.iter().map(|x| x.done_cycle).min().unwrap();
        assert!(
            spread > 100,
            "serialization must spread deliveries: {spread}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut noc = MeshNoc::new(&cfg());
        noc.send(0, 1, 1, Priority::Demand, 0, 0).unwrap();
        noc.send(1, 0, 1, Priority::Demand, 1, 0).unwrap();
        let _ = drain(&mut noc, 100);
        assert_eq!(noc.delivered_count(), 2);
        assert!(noc.total_latency() > 0);
    }

    #[test]
    fn demand_class_sees_lower_latency_under_contention() {
        let mut noc = MeshNoc::new(&cfg());
        // Saturate one column with a mixed workload: equal volumes of
        // demand and prefetch packets over the same links.
        let mut id = 0u64;
        for wave in 0..20u64 {
            for src in [0usize, 8, 16] {
                for prio in [Priority::Demand, Priority::Prefetch] {
                    let _ = noc.send(src, 56, 8, prio, id, wave * 4);
                    id += 1;
                }
            }
        }
        let _ = drain(&mut noc, 20_000);
        let demand = noc
            .avg_latency_for(Priority::Demand)
            .expect("demands arrived");
        let prefetch = noc
            .avg_latency_for(Priority::Prefetch)
            .expect("prefetches arrived");
        assert!(
            demand < prefetch,
            "prefetch-aware arbitration must favour demands: {demand:.0} vs {prefetch:.0}"
        );
        assert!(noc.delivered_for(Priority::Demand) > 0);
    }

    #[test]
    fn audit_passes_through_normal_traffic() {
        let mut mesh = MeshNoc::new(&cfg());
        let mut ana = AnalyticNoc::new(&cfg());
        for i in 0..10u64 {
            mesh.send(0, 63, 4, Priority::Demand, i, 0).unwrap();
            ana.send(0, 63, 4, Priority::Demand, i, 0).unwrap();
        }
        for now in 0..500 {
            mesh.tick(now);
            ana.tick(now);
            assert_eq!(mesh.audit(true), Ok(()), "cycle {now}");
            assert_eq!(ana.audit(true), Ok(()), "cycle {now}");
        }
    }

    #[test]
    fn dropped_flit_breaks_mesh_audit() {
        let mut mesh = MeshNoc::new(&cfg());
        mesh.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        // Tick until a flit is in the fabric, then lose it.
        let mut dropped = false;
        for now in 0..50 {
            mesh.tick(now);
            if mesh.inject_drop_flit(3) {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "a flit should have been in flight");
        let err = mesh.audit(false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
    }

    #[test]
    fn dropped_delivery_breaks_analytic_audit() {
        let mut ana = AnalyticNoc::new(&cfg());
        ana.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        assert!(ana.inject_drop_flit(0));
        let err = ana.audit(false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        // Nothing left to drop.
        assert!(!ana.inject_drop_flit(0));
    }

    #[test]
    fn full_audit_catches_drifted_ring_bookkeeping() {
        let mut mesh = MeshNoc::new(&cfg());
        for i in 0..6u64 {
            mesh.send(0, 63, 8, Priority::Demand, i, 0).unwrap();
        }
        for now in 0..20 {
            mesh.tick(now);
        }
        assert_eq!(mesh.audit(true), Ok(()));
        let b = mesh
            .len
            .iter()
            .position(|&l| l >= 2)
            .expect("a buffer holds flits");
        let drifted = |f: &dyn Fn(&mut MeshNoc)| {
            let mut m = mesh.clone();
            f(&mut m);
            assert_eq!(m.audit(false), Ok(()), "only the full audit checks rings");
            m.audit(true).unwrap_err()
        };
        let err = drifted(&|m| m.len[b] -= 1);
        assert!(err.contains("ring drifted"), "{err}");
        let err = drifted(&|m| m.head[b] = m.wrap(usize::from(m.head[b]) + 1) as u8);
        assert!(err.contains("ring drifted"), "{err}");
        let err = drifted(&|m| m.head[b] = m.depth as u8);
        assert!(err.contains("ring drifted"), "{err}");
        // A ring emptied behind the counters' back shows in the occupancy
        // mask and the buffered-flit total.
        let err = drifted(&|m| {
            m.len[b] = 0;
            m.tail[b] = m.head[b];
        });
        assert!(err.contains("occupancy mask drifted"), "{err}");
        let err = drifted(&|m| {
            m.len[b] -= 1;
            m.tail[b] = m.wrap(usize::from(m.tail[b]) + m.depth - 1) as u8;
        });
        assert!(err.contains("buffered-flit counter drifted"), "{err}");
    }

    #[test]
    fn drop_on_idle_mesh_is_noop() {
        let mut mesh = MeshNoc::new(&cfg());
        assert!(!mesh.inject_drop_flit(7));
        assert_eq!(mesh.audit(true), Ok(()));
    }

    #[test]
    fn mesh_quiescence_tracks_traffic() {
        let mut noc = MeshNoc::new(&cfg());
        assert_eq!(noc.next_activity(0), None, "empty fabric is idle");
        noc.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        assert_eq!(noc.next_activity(0), Some(0), "queued injection is work");
        let _ = drain(&mut noc, 300);
        assert_eq!(noc.next_activity(300), None, "drained fabric is idle again");
    }

    #[test]
    fn mesh_packet_table_stays_bounded_by_packets_in_flight() {
        let mut noc = MeshNoc::new(&cfg());
        let mut rng = clip_types::SimRng::seed_from_u64(0x7AB1E);
        let (mut sent, mut delivered, mut peak) = (0u64, 0u64, 0u64);
        for now in 0..20_000u64 {
            for _ in 0..rng.gen_range(0usize..4) {
                let (src, dst) = (rng.gen_range(0usize..64), rng.gen_range(0usize..64));
                let flits = if rng.gen_bool(0.5) { 8 } else { 1 };
                if noc
                    .send(src, dst, flits, Priority::Demand, sent, now)
                    .is_ok()
                {
                    sent += 1;
                }
            }
            peak = peak.max(sent - delivered);
            delivered += noc.tick(now).len() as u64;
        }
        assert!(delivered > 20_000, "only {delivered} of {sent} delivered");
        assert!(
            noc.packets.len() as u64 <= peak,
            "{} table entries for at most {peak} packets in flight",
            noc.packets.len()
        );
        assert_eq!(noc.audit(true), Ok(()));
    }

    #[test]
    fn full_audit_catches_a_drifted_earliest_delivery() {
        let mut ana = AnalyticNoc::new(&cfg());
        let mut chip = ChipletNoc::new(&chiplet_cfg());
        for noc in [&mut ana as &mut dyn NocModel, &mut chip] {
            noc.send(0, 63, 8, Priority::Demand, 1, 0).unwrap();
            noc.send(5, 9, 1, Priority::Prefetch, 2, 0).unwrap();
            assert_eq!(noc.audit(true), Ok(()));
        }
        ana.deliveries.earliest += 1;
        chip.deliveries.earliest += 1;
        for noc in [&ana as &dyn NocModel, &chip] {
            assert_eq!(noc.audit(false), Ok(()), "only the full audit checks it");
            let err = noc.audit(true).unwrap_err();
            assert!(err.contains("earliest-delivery cache drifted"), "{err}");
        }
    }

    #[test]
    fn analytic_quiescence_reports_exact_delivery_cycle() {
        let mut ana = AnalyticNoc::new(&cfg());
        assert_eq!(ana.next_activity(0), None);
        ana.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        let next = ana.next_activity(0).expect("a delivery is pending");
        assert!(next > 0, "uncontended cross-mesh delivery takes cycles");
        // Nothing happens before the claimed cycle; the delivery lands
        // exactly there.
        for now in 0..next {
            assert!(ana.tick(now).is_empty(), "cycle {now} must be dead");
        }
        assert_eq!(ana.tick(next).len(), 1);
        assert_eq!(ana.next_activity(next + 1), None);
        // An overdue pending delivery clamps to `now`.
        ana.send(0, 1, 1, Priority::Demand, 2, next).unwrap();
        let due = ana.next_activity(next).unwrap();
        assert_eq!(ana.next_activity(due + 50), Some(due + 50));
    }

    #[test]
    fn route_is_xy() {
        let noc = MeshNoc::new(&cfg());
        // From node 0 (0,0) to node 63 (7,7): go east first.
        assert_eq!(noc.route(0, 63), 2);
        // From (7,0)=7 to 63 (7,7): go south.
        assert_eq!(noc.route(7, 63), 1);
        assert_eq!(noc.route(63, 63), LOCAL);
    }

    #[test]
    fn numa_penalty_taxes_only_cross_half_traffic() {
        let latency_of = |penalty: u64, src: usize, dst: usize| {
            let mut noc = MeshNoc::new(&NocConfig {
                numa_penalty: penalty,
                ..cfg()
            });
            noc.send(src, dst, 8, Priority::Demand, 1, 0).unwrap();
            drain(&mut noc, 2000)[0].done_cycle
        };
        // Node 0 (col 0) to node 7 (col 7) crosses the column-half cut
        // once; the whole penalty lands exactly once per link crossing.
        let base = latency_of(0, 0, 7);
        let taxed = latency_of(40, 0, 7);
        assert!(
            taxed > base + 30,
            "cross-socket traffic must pay the penalty: {base} -> {taxed}"
        );
        // Traffic inside the left half (cols 0..4) is untouched.
        assert_eq!(latency_of(0, 0, 3), latency_of(40, 0, 3));
        // And the default of 0 is bit-identical to the pre-knob mesh.
        assert_eq!(base, latency_of(0, 0, 7));
    }

    fn chiplet_cfg() -> NocConfig {
        NocConfig {
            chiplet_cluster: 16,
            ..cfg()
        }
    }

    #[test]
    fn chiplet_delivers_on_die_and_cross_die() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        assert_eq!(noc.nodes(), 64);
        noc.send(0, 5, 8, Priority::Demand, 1, 0).unwrap(); // die 0 -> die 0
        noc.send(0, 63, 8, Priority::Demand, 2, 0).unwrap(); // die 0 -> die 3
        let d = drain(&mut noc, 2000);
        assert_eq!(d.len(), 2);
        assert_eq!(noc.d2d_crossings(), 1);
        let on_die = d.iter().find(|x| x.payload == 1).unwrap().done_cycle;
        let cross = d.iter().find(|x| x.payload == 2).unwrap().done_cycle;
        // The d2d port pair adds wire latency plus per-flit serialization.
        let cfg = chiplet_cfg();
        assert!(
            cross >= on_die + cfg.d2d_latency + 8 * cfg.d2d_flit_cycles,
            "cross-die must pay the crossing: {on_die} vs {cross}"
        );
    }

    #[test]
    fn chiplet_d2d_port_serializes_cross_die_traffic() {
        // Many packets between the same die pair queue on the narrow d2d
        // ports; the same load within one die streams through the wide
        // local link.
        let run = |srcs: std::ops::Range<usize>, dst: usize| {
            let mut noc = ChipletNoc::new(&chiplet_cfg());
            for (i, src) in srcs.enumerate() {
                noc.send(src, dst, 8, Priority::Demand, i as u64, 0)
                    .unwrap();
            }
            drain(&mut noc, 50_000)
                .iter()
                .map(|d| d.done_cycle)
                .max()
                .unwrap()
        };
        let on_die = run(0..16, 1);
        let cross_die = run(0..16, 63);
        assert!(
            cross_die > on_die * 2,
            "d2d crossing must serialize: {on_die} vs {cross_die}"
        );
    }

    #[test]
    fn chiplet_prefetch_yields_on_the_crossing() {
        // Same contended cross-die stream once as demands, once as plain
        // prefetches: with prefetch-aware arbitration the prefetch stream
        // must accumulate more latency (it yields on every shared
        // resource, the narrow d2d ports most of all).
        let total_latency = |prio: Priority| {
            let mut noc = ChipletNoc::new(&chiplet_cfg());
            for i in 0..10u64 {
                noc.send(0, 63, 8, prio, i, 0).unwrap();
            }
            let d = drain(&mut noc, 50_000);
            assert_eq!(d.len(), 10);
            noc.total_latency()
        };
        assert!(
            total_latency(Priority::Prefetch) > total_latency(Priority::Demand),
            "plain prefetches must yield on the crossing"
        );
    }

    #[test]
    fn chiplet_quiescence_is_exact() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        assert_eq!(noc.next_activity(0), None, "empty fabric is idle");
        noc.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        let next = noc.next_activity(0).expect("a delivery is pending");
        assert!(next > chiplet_cfg().d2d_latency, "crossing takes cycles");
        for now in 0..next {
            assert!(noc.tick(now).is_empty(), "cycle {now} must be dead");
        }
        assert_eq!(noc.tick(next).len(), 1);
        assert_eq!(noc.next_activity(next + 1), None);
    }

    #[test]
    fn chiplet_audit_catches_dropped_delivery() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        for i in 0..4u64 {
            noc.send(0, 63, 4, Priority::Demand, i, 0).unwrap();
            noc.send(3, 9, 4, Priority::Demand, 10 + i, 0).unwrap();
        }
        assert_eq!(noc.audit(true), Ok(()));
        assert!(noc.inject_drop_flit(5));
        let err = noc.audit(false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        // Idle fabric: nothing to drop.
        let mut idle = ChipletNoc::new(&chiplet_cfg());
        assert!(!idle.inject_drop_flit(0));
    }

    #[test]
    fn chiplet_backpressures_under_saturation() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        let mut accepted = 0u64;
        for i in 0..20_000u64 {
            if noc.send(0, 63, 8, Priority::Demand, i, 0).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted > 0 && accepted < 20_000, "{accepted}");
        assert_eq!(noc.audit(true), Ok(()));
    }
}
