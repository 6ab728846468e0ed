//! **Both Sides Limited Spin** (Fig. 9): poll before blocking.
//!
//! Both sides poll the queue up to `MAX_SPIN` times (`poll_queue`: a yield
//! on uniprocessors, a spin step with an `empty` check per iteration on the
//! multiprocessor — the paper's §5 uses 25 µs, which the simulator models;
//! natively the step is far shorter) and only then enter the BSW blocking
//! path.
//! Fig. 10 shows the uniprocessor sensitivity to `MAX_SPIN` — at 20, a
//! single client blocks only 3 % of the time — and Fig. 11 shows the
//! multiprocessor cliff: once one client out-spins its budget, waking it
//! loads the server, pushing more clients over their budgets.

use crate::channel::{Channel, QueueRef};
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, enqueue_or_sleep};
use crate::trace::{Span, TracePoint};

/// The limited-spin prologue: `while (empty(Q) && spincnt++ < MAX_SPIN)
/// poll_queue(Q);`.
fn limited_spin<O: OsServices>(q: &QueueRef<'_>, os: &O, max_spin: u32) {
    os.trace(TracePoint::Begin(Span::Spin));
    let mut spincnt = 0;
    while q.is_empty(os) && spincnt < max_spin {
        os.poll_pause();
        spincnt += 1;
    }
    os.trace(TracePoint::End(Span::Spin));
}

/// Synchronous `Send`: enqueue, wake, spin up to `max_spin`, then block.
pub fn send<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    max_spin: u32,
) -> Message {
    let srv = ch.receive_queue();
    enqueue_or_sleep(&srv, os, msg);
    srv.wake_consumer(os);
    let rq = ch.reply_queue(client);
    limited_spin(&rq, os, max_spin);
    blocking_dequeue(&rq, os, || os.busy_wait() /* try to hand off */)
}

/// `Receive`: spin up to `max_spin`, then block.
pub fn receive<O: OsServices>(ch: &Channel, os: &O, max_spin: u32) -> Message {
    let srv = ch.receive_queue();
    limited_spin(&srv, os, max_spin);
    blocking_dequeue(&srv, os, || {})
}

/// `Reply`: identical to BSW.
pub fn reply<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) {
    let rq = ch.reply_queue(client);
    enqueue_or_sleep(&rq, os, msg);
    rq.wake_consumer(os);
}

use crate::fault::IpcError;
use crate::protocol::{blocking_dequeue_deadline, enqueue_or_sleep_deadline, Deadline};
use core::time::Duration;

/// Fallible `Send`: the Fig. 9 protocol — limited spin, then a bounded
/// block — under an overall `timeout`.
pub fn send_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    max_spin: u32,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(os, timeout);
    let srv = ch.receive_queue();
    enqueue_or_sleep_deadline(&srv, os, msg, &deadline)?;
    srv.wake_consumer(os);
    let rq = ch.reply_queue(client);
    limited_spin(&rq, os, max_spin);
    blocking_dequeue_deadline(&rq, os, &deadline, || os.busy_wait())
}

/// Fallible `Receive`: spin up to `max_spin`, then block for at most the
/// rest of `timeout`.
pub fn receive_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    max_spin: u32,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(os, timeout);
    let srv = ch.receive_queue();
    limited_spin(&srv, os, max_spin);
    blocking_dequeue_deadline(&srv, os, &deadline, || {})
}

/// Fallible `Reply`: identical to BSW's.
pub fn reply_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    timeout: Duration,
) -> Result<(), IpcError> {
    let deadline = Deadline::new(os, timeout);
    let rq = ch.reply_queue(client);
    enqueue_or_sleep_deadline(&rq, os, msg, &deadline)?;
    rq.wake_consumer(os);
    Ok(())
}
