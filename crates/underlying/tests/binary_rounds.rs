//! Round-level behaviour of the randomized binary consensus: unanimity
//! decides in round 1, forced splits converge within a few common-coin
//! rounds, and the wind-down protocol actually drains the network.

use dex_simnet::{Actor, Context, DelayModel, Simulation};
use dex_types::{ProcessId, SystemConfig};
use dex_underlying::{BinaryMsg, BrachaBinary, CoinMode, Outbox, UnderlyingConsensus};

struct BinNode {
    bin: BrachaBinary,
    proposal: bool,
}

impl BinNode {
    fn flush(out: &mut Outbox<BinaryMsg>, ctx: &mut Context<'_, BinaryMsg>) {
        for (dest, m) in out.drain() {
            ctx.send_dest(dest, m);
        }
    }
}

impl Actor for BinNode {
    type Msg = BinaryMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        let mut out = Outbox::new();
        self.bin.propose(self.proposal, ctx.rng(), &mut out);
        Self::flush(&mut out, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: &BinaryMsg, ctx: &mut Context<'_, BinaryMsg>) {
        let mut out = Outbox::new();
        self.bin.on_message(from, msg, ctx.rng(), &mut out);
        Self::flush(&mut out, ctx);
    }
}

fn run(proposals: &[bool], coin: CoinMode, seed: u64) -> Simulation<BinNode> {
    let cfg = SystemConfig::new(proposals.len(), 1).unwrap();
    let actors: Vec<BinNode> = proposals
        .iter()
        .enumerate()
        .map(|(i, p)| BinNode {
            bin: BrachaBinary::new(cfg, ProcessId::new(i), coin),
            proposal: *p,
        })
        .collect();
    let mut sim = Simulation::builder(actors)
        .seed(seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .build();
    let out = sim.run(30_000_000);
    assert!(out.quiescent, "binary consensus must wind down");
    sim
}

#[test]
fn unanimous_true_decides_in_round_one() {
    for seed in 0..5 {
        let sim = run(&[true; 6], CoinMode::Common { seed: 1 }, seed);
        for node in sim.actors() {
            assert_eq!(node.bin.decision(), Some(&true), "seed {seed}");
            // Decided in round 1, wound down by round 2.
            assert!(
                node.bin.round() <= 2,
                "seed {seed}: round {}",
                node.bin.round()
            );
            assert!(node.bin.halted());
        }
    }
}

#[test]
fn unanimous_false_decides_false() {
    let sim = run(&[false; 6], CoinMode::Common { seed: 2 }, 9);
    for node in sim.actors() {
        assert_eq!(node.bin.decision(), Some(&false));
    }
}

#[test]
fn forced_split_converges_with_common_coin() {
    for seed in 0..5 {
        let sim = run(
            &[true, false, true, false, true, false],
            CoinMode::Common { seed: 7 },
            seed,
        );
        let first = *sim.actors()[0].bin.decision().expect("decided");
        for node in sim.actors() {
            assert_eq!(node.bin.decision(), Some(&first), "seed {seed}");
            assert!(
                node.bin.round() <= 8,
                "seed {seed}: common coin should converge quickly, took {} rounds",
                node.bin.round()
            );
        }
    }
}

#[test]
fn round_cap_halts_without_decision_instead_of_livelocking() {
    // An adversarially tiny cap: the machine must halt (undecided is
    // acceptable; spinning forever is not).
    let cfg = SystemConfig::new(6, 1).unwrap();
    let actors: Vec<BinNode> = (0..6)
        .map(|i| {
            let mut bin = BrachaBinary::new(cfg, ProcessId::new(i), CoinMode::Local);
            bin.set_max_rounds(1);
            BinNode {
                bin,
                proposal: i % 2 == 0,
            }
        })
        .collect();
    let mut sim = Simulation::builder(actors)
        .seed(3)
        .delay(DelayModel::Constant(1))
        .build();
    let out = sim.run(5_000_000);
    assert!(out.quiescent);
    for node in sim.actors() {
        assert!(node.bin.halted());
    }
}

#[test]
fn silent_fault_does_not_block_rounds() {
    let cfg = SystemConfig::new(6, 1).unwrap();
    let mut actors: Vec<BinNode> = (0..5)
        .map(|i| BinNode {
            bin: BrachaBinary::new(cfg, ProcessId::new(i), CoinMode::Common { seed: 5 }),
            proposal: i % 2 == 0,
        })
        .collect();
    // p5 never proposes (crash before start).
    actors.push(BinNode {
        bin: BrachaBinary::new(cfg, ProcessId::new(5), CoinMode::Common { seed: 5 }),
        proposal: false,
    });
    struct Silent;
    impl Actor for Silent {
        type Msg = BinaryMsg;
        fn on_start(&mut self, _: &mut Context<'_, BinaryMsg>) {}
        fn on_message(&mut self, _: ProcessId, _: &BinaryMsg, _: &mut Context<'_, BinaryMsg>) {}
    }
    // An actor slot: one per process, moved only at construction.
    #[allow(clippy::large_enum_variant)]
    enum Node {
        Live(BinNode),
        Dead(Silent),
    }
    impl Actor for Node {
        type Msg = BinaryMsg;
        fn on_start(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
            match self {
                Node::Live(n) => n.on_start(ctx),
                Node::Dead(s) => s.on_start(ctx),
            }
        }
        fn on_message(&mut self, f: ProcessId, m: &BinaryMsg, ctx: &mut Context<'_, BinaryMsg>) {
            match self {
                Node::Live(n) => n.on_message(f, m, ctx),
                Node::Dead(s) => s.on_message(f, m, ctx),
            }
        }
    }
    let mut nodes: Vec<Node> = actors.into_iter().take(5).map(Node::Live).collect();
    nodes.push(Node::Dead(Silent));
    let mut sim = Simulation::builder(nodes)
        .seed(11)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .build();
    assert!(sim.run(30_000_000).quiescent);
    let mut decisions = Vec::new();
    for node in sim.actors() {
        if let Node::Live(n) = node {
            decisions.push(*n.bin.decision().expect("correct processes decide"));
        }
    }
    assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
}
