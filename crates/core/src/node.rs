//! The one system-node type: a correct actor or a Byzantine actor speaking
//! the same wire type.

use dex_adversary::{ByzantineActor, ProtocolForgery};
use dex_obs::Recorder;
use dex_simnet::{Actor, Context, MsgClass, Recoverable};
use dex_types::ProcessId;

/// A system node: a correct process running actor `A`, or a Byzantine
/// process attacking it over the same wire type. Byzantine nodes record no
/// events (their logs would be untrusted anyway), never batch — which also
/// exercises receivers against mixed batched/unbatched traffic — and
/// ignore restarts (the adversary's state is its strategy).
///
/// The variants are deliberately unboxed: a `Node` is an actor slot — one
/// per process for the lifetime of the run, moved only at construction —
/// so the size asymmetry costs nothing, while boxing would add an
/// indirection on every message delivery.
#[allow(clippy::large_enum_variant)]
pub enum Node<A: Actor>
where
    A::Msg: ProtocolForgery,
{
    /// Correct process.
    Correct(A),
    /// Byzantine (or, for the crash-model rows, crashed) process.
    Byz(ByzantineActor<A::Msg>),
}

impl<A: Actor> Actor for Node<A>
where
    A::Msg: ProtocolForgery,
{
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            Node::Correct(a) => a.on_start(ctx),
            Node::Byz(b) => b.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            Node::Correct(a) => a.on_message(from, msg, ctx),
            Node::Byz(b) => b.on_message(from, msg, ctx),
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        match self {
            Node::Correct(a) => a.recorder_mut(),
            Node::Byz(_) => None,
        }
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        A::msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        A::msg_class(msg)
    }
}

impl<A: Recoverable> Recoverable for Node<A>
where
    A::Msg: ProtocolForgery,
{
    fn restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            Node::Correct(a) => a.restart(ctx),
            Node::Byz(_) => {}
        }
    }
}
