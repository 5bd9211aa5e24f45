//! The reactor subsystem: the server's one front end, a poll/epoll-driven
//! event loop over non-blocking sockets.
//!
//! Layout:
//!
//! * [`poller`] — readiness polling (epoll on Linux, poll(2) on other
//!   unix) plus the cross-thread [`poller::Waker`], declared as direct
//!   FFI since the workspace carries no libc/mio dependency.
//! * [`outbox`] — per-connection outbox rings and one-time frame
//!   encoding for broadcasts.
//! * [`event_loop`] — the loop itself: accept, framed non-blocking
//!   reads with partial-line carry, write-interest-driven flushing,
//!   replication heartbeats, idle-transaction expiry, the command
//!   worker pool, and the single connection-teardown path.

pub(crate) mod event_loop;
pub(crate) mod outbox;
pub mod poller;

pub use poller::raise_nofile_limit;
