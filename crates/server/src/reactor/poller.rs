//! Readiness polling over raw fds: epoll on Linux, poll(2) elsewhere.
//!
//! The workspace deliberately carries no `libc`/`mio` dependency, so
//! the handful of syscalls the reactor needs are declared here
//! directly — std already links the platform C library. The surface
//! is mio-shaped but minimal: register an fd with read and/or write
//! interest, re-arm interest, wait for events with a timeout.
//!
//! Both backends are *level-triggered*: an fd stays ready until the
//! condition is consumed. The event loop relies on that (it may leave
//! bytes unread when a connection's command queue is over its
//! high-water mark) — but level triggering also means interest must be
//! *modified off* while gated, or the poller would spin hot reporting
//! the same readiness forever.
//!
//! Linux test builds compile the poll(2) backend too, so one test
//! suite runs against both.

use std::io;
use std::os::unix::io::RawFd;

/// What the caller wants to hear about an fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Readable (or accept-ready, or peer-closed).
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The registered fd.
    pub fd: RawFd,
    /// Readable / peer closed / error (errors surface on the
    /// subsequent read).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors glibc's `struct epoll_event`; packed on x86 so the
    /// 64-bit data field sits at offset 4, exactly as the kernel ABI
    /// expects there.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// epoll-backed poller.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// A fresh epoll instance.
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: fd as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Start watching `fd` with the given interest.
        pub fn register(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest)
        }

        /// Change a watched fd's interest set.
        pub fn reregister(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest)
        }

        /// Stop watching `fd`.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Interest::READ)
        }

        /// Collect ready events into `out`, waiting up to `timeout`.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &buf[..n as usize] {
                // Copy out of the possibly-packed struct before use.
                let (events, data) = (ev.events, ev.data);
                out.push(Event {
                    fd: data as RawFd,
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }
}

#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }

    /// poll(2)-backed fallback: the interest set is kept in a map and
    /// the pollfd array rebuilt per wait. O(fds) per call, which is
    /// fine for the platforms this path serves.
    pub struct Poller {
        interest: HashMap<RawFd, Interest>,
    }

    impl Poller {
        /// A fresh poll-backed instance.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                interest: HashMap::new(),
            })
        }

        /// Start watching `fd` with the given interest.
        pub fn register(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.interest.insert(fd, interest);
            Ok(())
        }

        /// Change a watched fd's interest set.
        pub fn reregister(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            self.interest.insert(fd, interest);
            Ok(())
        }

        /// Stop watching `fd`.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.interest.remove(&fd);
            Ok(())
        }

        /// Collect ready events into `out`, waiting up to `timeout`.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            out.clear();
            let mut fds: Vec<PollFd> = self
                .interest
                .iter()
                .map(|(&fd, i)| PollFd {
                    fd,
                    events: if i.read { POLLIN } else { 0 } | if i.write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms = timeout.as_millis().min(c_int::MAX as u128) as c_int;
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for p in &fds {
                if p.revents == 0 {
                    continue;
                }
                out.push(Event {
                    fd: p.fd,
                    readable: p.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: p.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use poll::Poller;

/// Wakes a sleeping [`Poller`] from another thread: a nonblocking
/// socketpair whose read end the loop registers like any other fd.
/// Writes coalesce — once a byte is pending, further wakes are no-ops
/// until the loop drains it.
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    /// A fresh waker pair.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd the loop registers for read interest.
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Wake the loop (cheap, thread-safe; a full pipe means a wake is
    /// already pending, which is all we need).
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Drain pending wake bytes (loop side).
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Raise the process `RLIMIT_NOFILE` soft limit to the hard limit and
/// return the resulting soft limit. The 10k-subscriber fan-out paths
/// (tests, benches) call this so descriptor-hungry scenarios don't trip
/// over a conservative default; failures are non-fatal — the caller
/// sizes its fleet to whatever this returns.
pub fn raise_nofile_limit() -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    // RLIMIT_NOFILE is 7 on Linux and 8 on the BSDs/macOS.
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        // Privileged processes may raise the hard limit as well (it is
        // still capped by the kernel's fs.nr_open, hence a value well
        // below the 2^20 default); everyone else gets soft = hard.
        let generous = lim.max.max(1 << 18);
        if lim.max < generous {
            let want = RLimit {
                cur: generous,
                max: generous,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return generous;
            }
        }
        if lim.cur < lim.max {
            let want = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return lim.max;
            }
        }
        lim.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// The surface both backends share, so one test body drives each.
    trait Backend: Sized {
        fn open() -> io::Result<Self>;
        fn register(&mut self, fd: RawFd, interest: Interest) -> io::Result<()>;
        fn reregister(&mut self, fd: RawFd, interest: Interest) -> io::Result<()>;
        fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
        fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()>;
    }

    macro_rules! backend {
        ($p:ty) => {
            impl Backend for $p {
                fn open() -> io::Result<Self> {
                    <$p>::new()
                }
                fn register(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
                    <$p>::register(self, fd, interest)
                }
                fn reregister(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
                    <$p>::reregister(self, fd, interest)
                }
                fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                    <$p>::deregister(self, fd)
                }
                fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
                    <$p>::wait(self, out, timeout)
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend!(epoll::Poller);
    backend!(poll::Poller);

    fn waker_wakes_and_drains_on<P: Backend>() {
        let mut poller = P::open().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing pending: times out empty.
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.iter().all(|e| e.fd != waker.fd()));
        waker.wake();
        waker.wake(); // coalesces
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.fd == waker.fd() && e.readable));
        waker.drain();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.iter().all(|e| e.fd != waker.fd()));
    }

    fn write_interest_reported_and_rearmed_on<P: Backend>() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = P::open().unwrap();
        poller
            .register(
                a.as_raw_fd(),
                Interest {
                    read: true,
                    write: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.fd == a.as_raw_fd() && e.writable && !e.readable));
        // Drop write interest; readability still reported once the
        // peer sends.
        poller.reregister(a.as_raw_fd(), Interest::READ).unwrap();
        (&b).write_all(b"x").unwrap();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.fd == a.as_raw_fd() && e.readable && !e.writable));
        poller.deregister(a.as_raw_fd()).unwrap();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn waker_wakes_and_drains() {
        #[cfg(target_os = "linux")]
        waker_wakes_and_drains_on::<epoll::Poller>();
        waker_wakes_and_drains_on::<poll::Poller>();
    }

    #[test]
    fn write_interest_reported_and_rearmed() {
        #[cfg(target_os = "linux")]
        write_interest_reported_and_rearmed_on::<epoll::Poller>();
        write_interest_reported_and_rearmed_on::<poll::Poller>();
    }
}
