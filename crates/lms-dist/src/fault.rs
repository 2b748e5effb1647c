//! Deterministic fault injection — the adversary of the chaos suite.
//!
//! A [`FaultPlan`] scripts failures against a distributed run: kill rank
//! *p* right before a chosen protocol step, stall it past the
//! coordinator's read timeout, or corrupt one byte of one of its outgoing
//! frames (exercising the wire v2 checksum). Plans are plain data,
//! threaded into each forked worker at spawn time, so a scripted run is
//! exactly reproducible — which is what lets `tests/chaos.rs` assert
//! that a recovered run is **bit-identical** to a failure-free one.
//!
//! Replacement ranks forked by recovery always get an empty (disarmed)
//! plan: an injected fault fires at most once per scripted rank, never in
//! an infinite kill-respawn-kill loop.
//!
//! Fault points count **worker-local** protocol steps: `iter` is the
//! 1-based count of `Interior` frames the worker process has served (on
//! the failure-free path this equals the global iteration number; during
//! replay a surviving worker's count keeps increasing), and `color` is
//! the color id carried by the `ColorStep` frame.

/// A protocol step of a rank worker's life, addressable by a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before serving the `iter`-th `Interior` frame (1-based).
    Interior { iter: u32 },
    /// Before sweeping interface color `color` of local iteration `iter`.
    Color { iter: u32, color: u32 },
    /// Before the end-of-iteration re-score of local iteration `iter`.
    Finish { iter: u32 },
}

/// One scripted failure of a rank worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// `_exit` with [`INJECTED_KILL_EXIT`] right before `point` — the
    /// fail-stop regime.
    KillBefore { point: FaultPoint },
    /// Sleep `ms` milliseconds right before `point` — with `ms` beyond
    /// the coordinator's read timeout, the livelock regime.
    StallBefore { point: FaultPoint, ms: u64 },
    /// XOR one byte of the worker's `frame`-th outgoing frame (0-based,
    /// counting every frame it writes), at offset `byte` modulo the
    /// frame's checksummed region — the silent-corruption regime the
    /// wire v2 CRC32c detects.
    CorruptOutFrame { frame: u64, byte: usize },
    /// Close both stream ends right before `point` and stay alive — the
    /// network-partition regime: the coordinator sees EOF on a rank that
    /// `waitpid` still reports running, and must diagnose
    /// `DistError::ConnLost` (never block reaping a process that has not
    /// exited).
    DropConnBefore { point: FaultPoint },
    /// Write every outgoing frame one byte per `write(2)`, flushing
    /// between bytes — the maximally fragmented stream a slow or
    /// misbehaving network can deliver. A correct coordinator reassembles
    /// it invisibly: no recovery, bit-identical run.
    ShortWrite,
    /// Sleep `per_frame_ms` before each outgoing frame — the slow-peer
    /// regime. Below the coordinator's read timeout this must be
    /// invisible (no recovery, bit-identical); beyond it, it is the
    /// stall regime by another name.
    SlowPeer { per_frame_ms: u64 },
}

/// Exit code of a worker leaving via an injected [`WorkerFault::KillBefore`]
/// (distinguishable from a clean exit, a panic (101) and a stream error
/// (102) in the reaped wait status).
pub const INJECTED_KILL_EXIT: i32 = 113;

/// Exit code of a socket worker scripted to refuse connecting
/// ([`FaultPlan::refuse_connect`]): it leaves before ever dialling the
/// coordinator, whose `accept` then times out into
/// `DistError::ConnRefused`.
pub const REFUSED_CONNECT_EXIT: i32 = 115;

/// A scripted set of failures for one distributed run: `(rank, fault)`
/// pairs plus an optional spawn veto. Empty plans (the default) make the
/// fault machinery vanish from the hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults by target rank; one rank may carry several.
    pub rank_faults: Vec<(u32, WorkerFault)>,
    /// Veto spawning entirely — exercises the graceful degradation to
    /// the in-process transport.
    pub fail_spawn: bool,
    /// Socket ranks that exit instead of dialling the coordinator
    /// (`_exit(REFUSED_CONNECT_EXIT)` before the first connect attempt):
    /// the refused-connect regime, surfacing as `DistError::ConnRefused`
    /// when the coordinator's accept times out.
    pub refuse_connect: Vec<u32>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Kill `rank` right before `point`.
    pub fn kill_at(rank: u32, point: FaultPoint) -> Self {
        FaultPlan::none().with(rank, WorkerFault::KillBefore { point })
    }

    /// Stall `rank` for `ms` milliseconds right before `point`.
    pub fn stall_at(rank: u32, point: FaultPoint, ms: u64) -> Self {
        FaultPlan::none().with(rank, WorkerFault::StallBefore { point, ms })
    }

    /// Corrupt byte `byte` of `rank`'s `frame`-th outgoing frame.
    pub fn corrupt(rank: u32, frame: u64, byte: usize) -> Self {
        FaultPlan::none().with(rank, WorkerFault::CorruptOutFrame { frame, byte })
    }

    /// Veto spawning (graceful-degradation path).
    pub fn no_spawn() -> Self {
        FaultPlan { fail_spawn: true, ..FaultPlan::default() }
    }

    /// Drop `rank`'s connection (close the stream, stay alive) right
    /// before `point`.
    pub fn drop_conn_at(rank: u32, point: FaultPoint) -> Self {
        FaultPlan::none().with(rank, WorkerFault::DropConnBefore { point })
    }

    /// Make `rank` write every frame one byte per syscall.
    pub fn short_write(rank: u32) -> Self {
        FaultPlan::none().with(rank, WorkerFault::ShortWrite)
    }

    /// Delay each of `rank`'s outgoing frames by `per_frame_ms`.
    pub fn slow_peer(rank: u32, per_frame_ms: u64) -> Self {
        FaultPlan::none().with(rank, WorkerFault::SlowPeer { per_frame_ms })
    }

    /// Make `rank` refuse to connect at all (socket transports only).
    pub fn refuse(rank: u32) -> Self {
        FaultPlan { refuse_connect: vec![rank], ..FaultPlan::default() }
    }

    /// Add one more scripted fault.
    pub fn with(mut self, rank: u32, fault: WorkerFault) -> Self {
        self.rank_faults.push((rank, fault));
        self
    }

    /// No faults scripted at all?
    pub fn is_empty(&self) -> bool {
        self.rank_faults.is_empty() && !self.fail_spawn && self.refuse_connect.is_empty()
    }

    /// Derive one scripted fault deterministically from `seed` — the
    /// chaos suite's seed matrix. The same `(seed, num_ranks, max_iters,
    /// num_colors)` always yields the same plan: an xorshift64* walk
    /// picks a target rank, an iteration, and one of the five fault
    /// shapes (kill before interior / color / finish, drop the
    /// connection before a color step, or corrupt a frame byte).
    pub fn from_seed(seed: u64, num_ranks: u32, max_iters: u32, num_colors: u32) -> Self {
        assert!(num_ranks > 0 && max_iters > 0 && num_colors > 0);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let rank = (next() % num_ranks as u64) as u32;
        let iter = 1 + (next() % max_iters as u64) as u32;
        match next() % 5 {
            0 => FaultPlan::kill_at(rank, FaultPoint::Interior { iter }),
            1 => {
                let color = (next() % num_colors as u64) as u32;
                FaultPlan::kill_at(rank, FaultPoint::Color { iter, color })
            }
            2 => FaultPlan::kill_at(rank, FaultPoint::Finish { iter }),
            3 => {
                let color = (next() % num_colors as u64) as u32;
                FaultPlan::drop_conn_at(rank, FaultPoint::Color { iter, color })
            }
            _ => FaultPlan::corrupt(rank, next() % 16, (next() % 256) as usize),
        }
    }

    /// Slice the plan down to what one worker process needs.
    pub(crate) fn worker_faults(&self, rank: u32) -> WorkerFaults {
        let mut wf = WorkerFaults::default();
        for &(r, fault) in &self.rank_faults {
            if r != rank {
                continue;
            }
            match fault {
                WorkerFault::KillBefore { point } => wf.kill.push(point),
                WorkerFault::StallBefore { point, ms } => wf.stall.push((point, ms)),
                WorkerFault::CorruptOutFrame { frame, byte } => wf.corrupt.push((frame, byte)),
                WorkerFault::DropConnBefore { point } => wf.drop_conn.push(point),
                WorkerFault::ShortWrite => wf.short_write = true,
                WorkerFault::SlowPeer { per_frame_ms } => wf.slow_frame_ms = per_frame_ms,
            }
        }
        wf.refuse_connect = self.refuse_connect.contains(&rank);
        wf
    }
}

/// One worker's slice of a [`FaultPlan`], evaluated inside the forked
/// rank process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WorkerFaults {
    kill: Vec<FaultPoint>,
    stall: Vec<(FaultPoint, u64)>,
    corrupt: Vec<(u64, usize)>,
    drop_conn: Vec<FaultPoint>,
    pub(crate) short_write: bool,
    pub(crate) slow_frame_ms: u64,
    pub(crate) refuse_connect: bool,
}

impl WorkerFaults {
    /// Fire any fault scripted for `point`: an injected kill leaves the
    /// process via `_exit(INJECTED_KILL_EXIT)`; a stall sleeps through
    /// the coordinator's read timeout, then lets the worker continue.
    pub(crate) fn hit(&self, point: FaultPoint) {
        if self.kill.contains(&point) {
            crate::sys::exit_now(INJECTED_KILL_EXIT);
        }
        for &(p, ms) in &self.stall {
            if p == point {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }

    /// A connection drop is scripted for `point` (the serve loop closes
    /// its streams and idles instead of exiting).
    pub(crate) fn hit_drop(&self, point: FaultPoint) -> bool {
        self.drop_conn.contains(&point)
    }

    /// The byte offset to corrupt in outgoing frame number `frame`, if
    /// one is scripted.
    pub(crate) fn corrupt_byte(&self, frame: u64) -> Option<usize> {
        self.corrupt.iter().find(|&&(f, _)| f == frame).map(|&(_, b)| b)
    }

    /// Append the script to `out` — how it reaches a rank through the
    /// spawner, which was forked before any run's options existed.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let point = |out: &mut Vec<u8>, p: &FaultPoint| {
            let (tag, iter, color) = match *p {
                FaultPoint::Interior { iter } => (0u8, iter, 0),
                FaultPoint::Color { iter, color } => (1, iter, color),
                FaultPoint::Finish { iter } => (2, iter, 0),
            };
            out.push(tag);
            out.extend_from_slice(&iter.to_le_bytes());
            out.extend_from_slice(&color.to_le_bytes());
        };
        let len = |out: &mut Vec<u8>, n: usize| out.extend_from_slice(&(n as u32).to_le_bytes());
        len(out, self.kill.len());
        self.kill.iter().for_each(|p| point(out, p));
        len(out, self.stall.len());
        for (p, ms) in &self.stall {
            point(out, p);
            out.extend_from_slice(&ms.to_le_bytes());
        }
        len(out, self.corrupt.len());
        for &(frame, byte) in &self.corrupt {
            out.extend_from_slice(&frame.to_le_bytes());
            out.extend_from_slice(&(byte as u64).to_le_bytes());
        }
        len(out, self.drop_conn.len());
        self.drop_conn.iter().for_each(|p| point(out, p));
        out.push(self.short_write as u8);
        out.extend_from_slice(&self.slow_frame_ms.to_le_bytes());
        out.push(self.refuse_connect as u8);
    }

    /// Read back what [`encode`](Self::encode) wrote from the front of
    /// `bytes`, returning the script and the bytes after it; `None` when
    /// `bytes` ends early or holds an unknown fault point.
    pub(crate) fn decode(mut bytes: &[u8]) -> Option<(WorkerFaults, &[u8])> {
        fn take<'b>(bytes: &mut &'b [u8], n: usize) -> Option<&'b [u8]> {
            let (head, tail) = bytes.split_at_checked(n)?;
            *bytes = tail;
            Some(head)
        }
        fn u32_at(bytes: &mut &[u8]) -> Option<u32> {
            Some(u32::from_le_bytes(take(bytes, 4)?.try_into().ok()?))
        }
        fn u64_at(bytes: &mut &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(take(bytes, 8)?.try_into().ok()?))
        }
        fn point(bytes: &mut &[u8]) -> Option<FaultPoint> {
            let tag = take(bytes, 1)?[0];
            let (iter, color) = (u32_at(bytes)?, u32_at(bytes)?);
            match tag {
                0 => Some(FaultPoint::Interior { iter }),
                1 => Some(FaultPoint::Color { iter, color }),
                2 => Some(FaultPoint::Finish { iter }),
                _ => None,
            }
        }
        let mut wf = WorkerFaults::default();
        for _ in 0..u32_at(&mut bytes)? {
            wf.kill.push(point(&mut bytes)?);
        }
        for _ in 0..u32_at(&mut bytes)? {
            wf.stall.push((point(&mut bytes)?, u64_at(&mut bytes)?));
        }
        for _ in 0..u32_at(&mut bytes)? {
            wf.corrupt.push((u64_at(&mut bytes)?, u64_at(&mut bytes)? as usize));
        }
        for _ in 0..u32_at(&mut bytes)? {
            wf.drop_conn.push(point(&mut bytes)?);
        }
        wf.short_write = take(&mut bytes, 1)?[0] != 0;
        wf.slow_frame_ms = u64_at(&mut bytes)?;
        wf.refuse_connect = take(&mut bytes, 1)?[0] != 0;
        Some((wf, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 4, 3, 5);
            let b = FaultPlan::from_seed(seed, 4, 3, 5);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert_eq!(a.rank_faults.len(), 1);
            let (rank, fault) = a.rank_faults[0];
            assert!(rank < 4);
            match fault {
                WorkerFault::KillBefore { point }
                | WorkerFault::StallBefore { point, .. }
                | WorkerFault::DropConnBefore { point } => {
                    let (FaultPoint::Interior { iter }
                    | FaultPoint::Color { iter, .. }
                    | FaultPoint::Finish { iter }) = point;
                    assert!((1..=3).contains(&iter));
                    if let FaultPoint::Color { color, .. } = point {
                        assert!(color < 5);
                    }
                }
                WorkerFault::CorruptOutFrame { .. }
                | WorkerFault::ShortWrite
                | WorkerFault::SlowPeer { .. } => {}
            }
        }
        // different seeds explore different faults
        let distinct: std::collections::HashSet<String> =
            (0..64u64).map(|s| format!("{:?}", FaultPlan::from_seed(s, 4, 3, 5))).collect();
        assert!(distinct.len() > 16, "seed walk should spread over the fault space");
    }

    #[test]
    fn worker_slicing_keeps_only_own_faults() {
        let plan = FaultPlan::kill_at(1, FaultPoint::Interior { iter: 2 })
            .with(2, WorkerFault::CorruptOutFrame { frame: 5, byte: 9 });
        assert!(plan.worker_faults(0).kill.is_empty());
        assert_eq!(plan.worker_faults(1).kill, vec![FaultPoint::Interior { iter: 2 }]);
        assert_eq!(plan.worker_faults(2).corrupt_byte(5), Some(9));
        assert_eq!(plan.worker_faults(2).corrupt_byte(4), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::no_spawn().is_empty());
        assert!(!FaultPlan::refuse(1).is_empty());
    }

    #[test]
    fn worker_scripts_survive_their_encoding() {
        let plan = FaultPlan::kill_at(1, FaultPoint::Interior { iter: 2 })
            .with(1, WorkerFault::StallBefore { point: FaultPoint::Finish { iter: 3 }, ms: 40 })
            .with(1, WorkerFault::CorruptOutFrame { frame: 5, byte: 9 })
            .with(1, WorkerFault::DropConnBefore { point: FaultPoint::Color { iter: 1, color: 7 } })
            .with(1, WorkerFault::ShortWrite)
            .with(1, WorkerFault::SlowPeer { per_frame_ms: 3 });
        let plan = FaultPlan { refuse_connect: vec![1], ..plan };
        for wf in [plan.worker_faults(1), plan.worker_faults(0)] {
            let mut bytes = Vec::new();
            wf.encode(&mut bytes);
            bytes.extend_from_slice(b"tail");
            let (back, rest) = WorkerFaults::decode(&bytes).expect("decodes");
            assert_eq!((back, rest), (wf, &b"tail"[..]));
            // every strict prefix is refused, never a panic
            for cut in 0..bytes.len() - 4 {
                assert!(WorkerFaults::decode(&bytes[..cut]).is_none(), "cut {cut}");
            }
        }
    }

    #[test]
    fn network_fault_slices_reach_the_right_worker() {
        let plan = FaultPlan::drop_conn_at(0, FaultPoint::Color { iter: 1, color: 2 })
            .with(1, WorkerFault::ShortWrite)
            .with(2, WorkerFault::SlowPeer { per_frame_ms: 7 });
        assert!(plan.worker_faults(0).hit_drop(FaultPoint::Color { iter: 1, color: 2 }));
        assert!(!plan.worker_faults(0).hit_drop(FaultPoint::Color { iter: 1, color: 3 }));
        assert!(!plan.worker_faults(1).hit_drop(FaultPoint::Color { iter: 1, color: 2 }));
        assert!(plan.worker_faults(1).short_write);
        assert!(!plan.worker_faults(0).short_write);
        assert_eq!(plan.worker_faults(2).slow_frame_ms, 7);
        assert_eq!(plan.worker_faults(1).slow_frame_ms, 0);
        let refusing = FaultPlan::refuse(3);
        assert!(refusing.worker_faults(3).refuse_connect);
        assert!(!refusing.worker_faults(2).refuse_connect);
    }
}
