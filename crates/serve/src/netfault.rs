//! Deterministic transport-fault injection for the `g80-serve` wire.
//!
//! Every [`SimContext`] owns a schedule over four wire *sites* — the
//! client's and server's frame reads and writes —
//! ([`SimContext::net_faults`], armed from `G80_SERVE_NET_FAULTS=
//! <seed>:<rate>[:kind]` on the global context, or in place by a test on its
//! own). Every framed I/O operation polls its site once in the context its
//! thread runs in: the daemon's for the server sites, the caller's for the
//! client sites. Whether the `index`-th operation at a site faults is the
//! schedule's decision, a pure function of `(seed, site, index)`, so a chaos
//! run replays bit-identically from its seed: same disconnects at the same
//! frame boundaries, same corrupted bytes, same stalls. This module decides
//! what a fire means.
//!
//! Kinds (`all` when omitted):
//!
//! * `disconnect` — the socket is torn down before the frame (pre) or in
//!   the middle of it (mid), chosen by a hash bit;
//! * `truncate` — a write sends the header and half the payload, then
//!   closes (the peer sees a mid-frame EOF);
//! * `corrupt` — one payload byte is flipped on the wire while the CRC
//!   still covers the original bytes, so the receiver's integrity check
//!   must catch it;
//! * `split` — the frame travels in dribbled chunks (writes) or is read a
//!   byte at a time / through a coalescing readahead (reads), exercising
//!   every partial-I/O path;
//! * `stall` — the operation sleeps 20–150 ms first, long enough to trip
//!   a tight server deadline, bounded so armed CI latency ceilings hold.
//!
//! Disarmed cost is one relaxed load per frame operation.

use g80_sim::fault::{splitmix64, FaultSchedule};
pub use g80_sim::fault::{NetFaultConfig, NetFaultKind};
use g80_sim::SimContext;

/// Where a transport fault can strike: each side's frame reads and
/// writes schedule independently.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NetSite {
    ClientWrite,
    ClientRead,
    ServerWrite,
    ServerRead,
}

impl NetSite {
    pub const ALL: [NetSite; 4] = [
        NetSite::ClientWrite,
        NetSite::ClientRead,
        NetSite::ServerWrite,
        NetSite::ServerRead,
    ];

    /// Stable dotted name (fault-site table in the README).
    pub fn name(&self) -> &'static str {
        match self {
            NetSite::ClientWrite => "net.client.write",
            NetSite::ClientRead => "net.client.read",
            NetSite::ServerWrite => "net.server.write",
            NetSite::ServerRead => "net.server.read",
        }
    }
}

impl From<NetSite> for usize {
    fn from(site: NetSite) -> usize {
        site as usize
    }
}

/// One concrete injected fault, fully determined by the schedule; the
/// framed layer interprets it for the operation at hand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Tear the connection down before touching the frame.
    DisconnectPre,
    /// Tear it down with the frame partially transferred.
    DisconnectMid,
    /// Write side: send the header and half the payload, then close.
    /// Read side: equivalent to [`NetFault::DisconnectMid`].
    Truncate,
    /// Flip bit `bit` of payload byte `byte % len` on the wire; the CRC
    /// still covers the original bytes.
    Corrupt { byte: u64, bit: u8 },
    /// Transfer the frame through deliberately tiny I/O units.
    Split,
    /// Sleep `ms` (20–150) before the operation.
    Stall { ms: u64 },
}

/// Decides whether this frame operation at `site` faults under `faults`,
/// and how. Every sub-parameter (mid vs pre disconnect, corrupted byte/bit,
/// stall length) comes from further hash bits of the same draw.
pub(crate) fn decide(faults: &FaultSchedule<NetFaultConfig>, site: NetSite) -> Option<NetFault> {
    if !faults.is_armed() {
        return None;
    }
    let cfg = faults.config()?;
    let sub = splitmix64(faults.draw(site, cfg.seed, cfg.rate)?);
    let kind = match cfg.kind {
        NetFaultKind::All => [
            NetFaultKind::Disconnect,
            NetFaultKind::Truncate,
            NetFaultKind::Corrupt,
            NetFaultKind::Split,
            NetFaultKind::Stall,
        ][(sub % 5) as usize],
        k => k,
    };
    Some(match kind {
        NetFaultKind::Disconnect => {
            if sub & (1 << 8) == 0 {
                NetFault::DisconnectPre
            } else {
                NetFault::DisconnectMid
            }
        }
        NetFaultKind::Truncate => NetFault::Truncate,
        NetFaultKind::Corrupt => NetFault::Corrupt {
            byte: sub >> 16,
            bit: ((sub >> 9) & 7) as u8,
        },
        NetFaultKind::Split => NetFault::Split,
        NetFaultKind::Stall => NetFault::Stall {
            ms: 20 + (sub >> 16) % 131,
        },
        NetFaultKind::All => unreachable!(),
    })
}

/// [`decide`] in the calling thread's context.
pub(crate) fn poll(site: NetSite) -> Option<NetFault> {
    SimContext::with_current(|ctx| decide(ctx.net_faults(), site))
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_sim::SimConfig;

    #[test]
    fn parse_accepts_seed_rate_and_kind() {
        // The wire variable as the daemon reads it: through the context's
        // configuration, where an unparsable spec leaves the wire disarmed.
        let parse = |v: &str| {
            SimConfig::from_vars(|name| (name == "G80_SERVE_NET_FAULTS").then(|| v.to_string()))
                .net_faults
        };
        let c = parse("7:0.25").unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.rate.get(), 0.25);
        assert_eq!(c.kind, NetFaultKind::All);
        assert_eq!(parse("1:0.5:corrupt").unwrap().kind, NetFaultKind::Corrupt);
        assert_eq!(parse("1:0.5:stall").unwrap().kind, NetFaultKind::Stall);
        assert_eq!(parse("1:0.5:all").unwrap().kind, NetFaultKind::All);
        assert!(parse("1:1.5").is_none(), "rate out of range");
        assert!(parse("1:0.5:gamma").is_none(), "unknown kind");
        assert!(parse("1:0.5:stall:x").is_none(), "trailing field");
        assert!(parse("nope").is_none());
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        // Pure-schedule test: replays of the same seed agree call-for-call,
        // and sub-parameters stay within their documented ranges.
        let faults = FaultSchedule::new(None);
        let draws = |site| -> Vec<Option<NetFault>> {
            faults.arm(Some(NetFaultConfig::new(42, 0.3)));
            (0..256).map(|_| decide(&faults, site)).collect()
        };
        let first = draws(NetSite::ClientWrite);
        assert_eq!(
            first,
            draws(NetSite::ClientWrite),
            "same seed must replay bit-identically"
        );
        let fired = first.iter().flatten().count();
        assert!(fired > 0, "rate 0.3 over 256 draws must fire");
        assert!(fired < 256, "rate 0.3 must not fire every draw");
        assert_eq!(faults.raised(NetSite::ClientWrite), fired as u64);
        for f in first.iter().flatten() {
            if let NetFault::Stall { ms } = f {
                assert!((20..=150).contains(ms), "stall {ms} ms out of bounds");
            }
        }
        // Sites schedule independently: a different site draws a
        // different sequence from the same seed.
        let other = draws(NetSite::ServerRead);
        assert_ne!(first, other, "sites must not share a schedule");
    }

    #[test]
    fn only_kind_restricts_draws() {
        let faults = FaultSchedule::new(Some(NetFaultConfig::only(9, 1.0, NetFaultKind::Corrupt)));
        for _ in 0..32 {
            match decide(&faults, NetSite::ServerWrite) {
                Some(NetFault::Corrupt { .. }) => {}
                other => panic!("expected Corrupt at rate 1.0, got {other:?}"),
            }
        }
        faults.arm(None);
        assert_eq!(decide(&faults, NetSite::ServerWrite), None, "disarmed");
    }
}
