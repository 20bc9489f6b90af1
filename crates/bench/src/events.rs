//! Shared fixture for the `micro_events` bench and its smoke tests: canned
//! federation topologies that isolate the three cost axes of the event
//! fast path — local fan-out width (subscribers per topic), registered but
//! non-subscribed gateway nodes (must be free for pure-local publishes),
//! and remote fan-out width (subscribed gateway nodes, paid per parcel) —
//! plus the cost and accuracy of the network thread's delay emulation.

use std::time::{Duration, Instant};

use rtcm_events::{ChannelHandle, EventReceiver, Federation, Latency, NodeId, Topic};

/// The topic every fixture publishes on.
pub const FANOUT_TOPIC: Topic = Topic(100);

/// Base of the per-gateway "quiet" topics (subscribed by gateway nodes,
/// never published on) — they register the gateway in the routing state
/// without subscribing it to [`FANOUT_TOPIC`].
pub const QUIET_TOPIC_BASE: u32 = 200;

/// Payload published by the fixture drivers: the size of a small protocol
/// message (`ArriveMsg`-ish JSON).
pub const PAYLOAD: &[u8] = b"{\"job\":{\"task\":7,\"seq\":4242},\"arrival_ns\":1234567890}";

/// A canned publish topology: one publisher handle plus every subscriber
/// the topology created (drain them with [`EventsFixture::drain`]).
pub struct EventsFixture {
    /// The federation keeping all channels alive.
    pub federation: Federation,
    /// The handle the bench publishes from.
    pub publisher: ChannelHandle,
    /// All subscriptions created by the topology, in creation order.
    pub receivers: Vec<EventReceiver>,
}

impl EventsFixture {
    /// Drains every receiver to empty and returns the number of events
    /// consumed (keeps queue memory flat between measured bursts).
    pub fn drain(&self) -> usize {
        let mut consumed = 0;
        for rx in &self.receivers {
            while rx.try_recv().is_ok() {
                consumed += 1;
            }
        }
        consumed
    }
}

/// Local fan-out: a single-node federation with `subscribers` consumers on
/// [`FANOUT_TOPIC`]. Publishes are pure-local (no gateway work at all).
#[must_use]
pub fn fanout_fixture(subscribers: usize) -> EventsFixture {
    let federation = Federation::new(1, Latency::None, 0);
    let publisher = federation.handle(NodeId(0)).expect("node 0 exists");
    let receivers = (0..subscribers).map(|_| publisher.subscribe(FANOUT_TOPIC)).collect();
    EventsFixture { federation, publisher, receivers }
}

/// Gateway flatness: node 0 publishes [`FANOUT_TOPIC`] to one local
/// subscriber while `gateways` other nodes each subscribe to their own
/// quiet topic — they are registered in the routing state but not
/// subscribed to the published topic, so the publish must not pay for
/// them.
#[must_use]
pub fn gateway_fixture(gateways: u16) -> EventsFixture {
    let federation = Federation::new(gateways + 1, Latency::None, 0);
    let publisher = federation.handle(NodeId(0)).expect("node 0 exists");
    let mut receivers = vec![publisher.subscribe(FANOUT_TOPIC)];
    for g in 0..gateways {
        let handle = federation.handle(NodeId(g + 1)).expect("gateway nodes exist");
        receivers.push(handle.subscribe(Topic(QUIET_TOPIC_BASE + u32::from(g))));
    }
    EventsFixture { federation, publisher, receivers }
}

/// Remote fan-out: `remotes` other nodes subscribe to [`FANOUT_TOPIC`], so
/// every publish from node 0 emits one latency-sampled parcel per remote
/// node (delivered by the in-process network thread).
#[must_use]
pub fn remote_fixture(remotes: u16) -> EventsFixture {
    remote_fixture_with(remotes, Latency::None)
}

fn remote_fixture_with(remotes: u16, latency: Latency) -> EventsFixture {
    let federation = Federation::new(remotes + 1, latency, 0);
    let publisher = federation.handle(NodeId(0)).expect("node 0 exists");
    let receivers = (0..remotes)
        .map(|r| {
            federation.handle(NodeId(r + 1)).expect("remote nodes exist").subscribe(FANOUT_TOPIC)
        })
        .collect();
    EventsFixture { federation, publisher, receivers }
}

/// The one-way delay [`delayed_fixture`] injects: inside the threaded
/// runtime's calibrated 283–361 µs network hop.
pub const EMULATED_DELAY: Duration = Duration::from_micros(300);

/// Delay emulation: like [`remote_fixture`], but every parcel is held back
/// by [`EMULATED_DELAY`] — the network thread's wait-and-deliver path.
#[must_use]
pub fn delayed_fixture(remotes: u16) -> EventsFixture {
    remote_fixture_with(remotes, Latency::Constant(EMULATED_DELAY))
}

/// What one paced run against a [`delayed_fixture`] observed.
#[derive(Debug)]
pub struct DelayedRun {
    /// Parcels the publisher sent (publishes × subscribers).
    pub sent: usize,
    /// Parcels the subscribers received.
    pub delivered: usize,
    /// Per received parcel, in µs, ascending: receive instant − (publish
    /// instant + [`EMULATED_DELAY`]). Never negative unless a parcel
    /// arrived early.
    pub late_us: Vec<f64>,
    /// CPU time the network thread used over the run, in ns (0 where
    /// `/proc` is unavailable).
    pub net_cpu_ns: u64,
}

/// Publishes `publishes` events from the fixture's node 0, one every
/// `interval` on a schedule fixed before the first (open loop), while one
/// thread per subscriber stamps each arrival. Every subscriber must be on
/// [`FANOUT_TOPIC`] (as in [`delayed_fixture`]); drain the fixture first.
#[must_use]
pub fn run_delayed(fx: &EventsFixture, publishes: u32, interval: Duration) -> DelayedRun {
    let cpu_before = net_thread_cpu_ns();
    let (sent_at, arrivals) = std::thread::scope(|s| {
        let stampers: Vec<_> = fx
            .receivers
            .iter()
            .map(|rx| {
                s.spawn(move || {
                    let mut arrivals = Vec::with_capacity(publishes as usize);
                    while arrivals.len() < publishes as usize {
                        let Ok(e) = rx.recv_timeout(Duration::from_secs(1)) else { break };
                        let seq = u32::from_le_bytes(e.payload[..4].try_into().expect("4 bytes"));
                        arrivals.push((seq, Instant::now()));
                    }
                    arrivals
                })
            })
            .collect();
        let start = Instant::now();
        let sent_at: Vec<Instant> = (0..publishes)
            .map(|seq| {
                let due = start + interval * seq;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let at = Instant::now();
                fx.publisher.publish(FANOUT_TOPIC, seq.to_le_bytes().to_vec());
                at
            })
            .collect();
        let arrivals: Vec<(u32, Instant)> =
            stampers.into_iter().flat_map(|t| t.join().expect("stamper thread panicked")).collect();
        (sent_at, arrivals)
    });
    let net_cpu_ns = net_thread_cpu_ns().saturating_sub(cpu_before);
    let mut late_us: Vec<f64> = arrivals
        .iter()
        .map(|&(seq, at)| {
            let due = sent_at[seq as usize] + EMULATED_DELAY;
            match at.checked_duration_since(due) {
                Some(late) => late.as_secs_f64() * 1e6,
                None => -((due - at).as_secs_f64() * 1e6),
            }
        })
        .collect();
    late_us.sort_by(f64::total_cmp);
    DelayedRun {
        sent: publishes as usize * fx.receivers.len(),
        delivered: arrivals.len(),
        late_us,
        net_cpu_ns,
    }
}

/// Total CPU time of this process's federation network threads (named
/// `rtcm-events-net`), from `/proc/self/task/*/schedstat`, in ns. An idle
/// network thread blocks without a deadline, so with one federation
/// sending this is that federation's network cost.
fn net_thread_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            if comm.trim_end() != "rtcm-events-net" {
                return None;
            }
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_fixture_delivers_to_every_subscriber() {
        let fx = fanout_fixture(8);
        assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), 8);
        assert_eq!(fx.drain(), 8);
    }

    #[test]
    fn gateway_fixture_keeps_quiet_topics_quiet() {
        let fx = gateway_fixture(4);
        assert_eq!(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD), 1, "only the local subscriber");
        assert_eq!(fx.drain(), 1);
    }
}
