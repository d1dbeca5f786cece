//! The replicated KV cluster under real OS concurrency: multi-slot DEX,
//! seven threads, jittered channels — logs and digests must still converge.

use dex_obs::{Event, EventKind};
use dex_replication::{Command, KvStore, Replica};
use dex_simnet::DelayModel;
use dex_threadnet::{run_network, NetworkOptions};
use dex_types::{ProcessId, SystemConfig};
use std::time::Duration;

#[test]
fn threaded_cluster_converges() {
    let cfg = SystemConfig::new(7, 1).unwrap();
    let requests = vec![Command::put(1, 10), Command::add(1, 5), Command::put(2, 20)];
    let replicas: Vec<Replica<KvStore>> = (0..7)
        .map(|i| {
            let mut replica = Replica::new(
                cfg,
                ProcessId::new(i),
                ProcessId::new(0),
                requests.clone(),
                3,
            );
            replica.enable_obs();
            replica
        })
        .collect();
    let result = run_network(
        replicas,
        NetworkOptions {
            seed: 5,
            delay: DelayModel::Uniform { min: 20, max: 300 },
            timeout: Duration::from_secs(30),
        },
    );
    assert!(result.quiescent, "cluster must drain");
    let first_digest = result.actors[0].machine().digest();
    for r in &result.actors {
        assert_eq!(r.log().committed_prefix(), 3, "all slots committed");
        assert_eq!(r.log().prefix(), requests, "log matches the request order");
        assert_eq!(r.machine().digest(), first_digest, "state convergence");
    }
    // A bare replica hands the host its recorder: the host stamps the
    // clock and records deliveries, so commits carry the time and causal
    // depth of the message that decided the slot — not (0, 0).
    for r in &result.actors {
        let events = r.obs().trace().events;
        let delivered = |e: &Event| matches!(e.kind, EventKind::Deliver { .. });
        assert!(events.iter().any(delivered), "no Deliver events");
        let commits: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Commit { .. }))
            .collect();
        assert_eq!(commits.len(), 3);
        for c in commits {
            assert!(c.at > 0 && c.depth >= 1, "unstamped commit: {c:?}");
        }
    }
    // Uncontended: key 1 = 15, key 2 = 20.
    assert_eq!(result.actors[0].machine().get(1), Some(15));
    assert_eq!(result.actors[0].machine().get(2), Some(20));
}
