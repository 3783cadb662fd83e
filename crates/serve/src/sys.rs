//! The two Linux readiness primitives the poll loop blocks on — `epoll`
//! and `eventfd` — declared against the C library that std already links,
//! so serving needs no dependency. Every `unsafe` block of this crate is
//! here.

#[cfg(not(target_os = "linux"))]
compile_error!("ner-serve's poll loop is built on epoll and eventfd, which only Linux has");

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::Duration;

/// Readable (or, for a listener, a connection waiting in the backlog).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Of several epoll sets watching one fd, wake only one per event.
pub(crate) const EPOLLEXCLUSIVE: u32 = 1 << 28;
/// Report a readiness change once, not for as long as it lasts.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

/// Whether a failed `accept` concerns only the one pending connection, so
/// the listener is fine: nothing was waiting after all (another shard
/// took it), the call was interrupted, or the connection failed before it
/// was taken. Linux reports such a connection's pending network error
/// from `accept` itself, and `accept(2)` asks that these be treated like
/// `EAGAIN`. The errno values are the generic ones x86-64 and arm64 use.
pub(crate) fn accept_error_is_per_connection(e: &io::Error) -> bool {
    const EPERM: i32 = 1; // a firewall rule refused it
    const ENONET: i32 = 64;
    const EPROTO: i32 = 71;
    const ENOPROTOOPT: i32 = 92;
    const EOPNOTSUPP: i32 = 95;
    const ENETDOWN: i32 = 100;
    const ENETUNREACH: i32 = 101;
    const EHOSTDOWN: i32 = 112;
    const EHOSTUNREACH: i32 = 113;
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
    ) || matches!(
        e.raw_os_error(),
        Some(
            EPERM
                | ENONET
                | EPROTO
                | ENOPROTOOPT
                | EOPNOTSUPP
                | ENETDOWN
                | ENETUNREACH
                | EHOSTDOWN
                | EHOSTUNREACH
        )
    )
}

/// `struct epoll_event`. The kernel packs it on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// The token the fd was registered with.
    pub(crate) fn token(self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Turns a C return value into the fd it names, or the `errno` error.
fn owned(ret: i32) -> io::Result<OwnedFd> {
    if ret < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a non-negative return of `epoll_create1`/`eventfd` is a
    // fresh descriptor that nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(ret) })
}

/// One epoll instance: a set of watched fds, each with a `u64` token.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: takes no pointers.
        Ok(Epoll { fd: owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })? })
    }

    /// Watches `fd` for `events`, reporting it as `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Event { events, data: token })
    }

    /// Stops watching `fd`. Closing an fd also removes it.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, Event::default())
    }

    fn ctl(&self, op: i32, fd: RawFd, mut event: Event) -> io::Result<()> {
        // SAFETY: `event` is a live `struct epoll_event` for the whole call.
        if unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a watched fd is ready or `timeout` passes (`None`
    /// waits for readiness alone), fills the front of `events`, and
    /// returns how many it filled. The timeout is rounded up to whole
    /// milliseconds, so the wait never ends before it. A signal ends the
    /// wait early with no events.
    pub(crate) fn wait(
        &self,
        events: &mut [Event],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let ms =
            timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32);
        let max = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: `events` is an exclusively borrowed array of at least
        // `max` `struct epoll_event`s, which the kernel fills from the
        // front and counts in the return value.
        let n = unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(e) };
        }
        Ok(n as usize)
    }
}

/// A nonblocking `eventfd`: a kernel counter that is readable while
/// nonzero. `signal` adds one; `drain` zeroes it.
pub(crate) struct EventFd {
    file: File,
}

impl EventFd {
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: takes no pointers.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { file: File::from(fd) })
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Makes the fd readable. The only possible failure is a counter at
    /// its maximum, which is already readable.
    pub(crate) fn signal(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Makes the fd unreadable until the next `signal`. Failing with
    /// `WouldBlock` means it already was.
    pub(crate) fn drain(&self) {
        let _ = (&self.file).read(&mut [0u8; 8]);
    }
}

/// A poll shard's wake-up line: an `eventfd` in the shard's epoll set,
/// and the flag the shard raises when it is about to block.
///
/// The protocol has two sides. The shard calls `park`, re-polls its
/// pending replies, and only then blocks. A dispatcher sends its replies,
/// then calls `wake`, which signals the fd only if the flag was up. Both
/// sides order the flag against the reply channels with `SeqCst` fences:
/// either the shard's re-poll sees the reply, or the dispatcher sees the
/// flag and signals. A reply sent between the re-poll and the wait
/// therefore still wakes the shard, while a busy shard costs its
/// dispatchers no system call.
pub(crate) struct Waker {
    efd: EventFd,
    parked: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        Ok(Waker { efd: EventFd::new()?, parked: AtomicBool::new(false) })
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.efd.fd()
    }

    /// Shard side: announces that the shard will block after one more look
    /// at its pending replies.
    pub(crate) fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Shard side: the shard is awake again.
    pub(crate) fn unpark(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Shard side: consumes a signal, so the next wait does not end at once.
    pub(crate) fn clear(&self) {
        self.efd.drain();
    }

    /// Dispatcher side, after the replies are sent: wakes the shard if it
    /// is blocked or about to block.
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.swap(false, Ordering::SeqCst) {
            self.efd.signal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn a_wait_reports_the_ready_token_and_honours_its_timeout() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.fd(), EPOLLIN, 7).unwrap();
        let mut events = [Event::default(); 4];
        let t0 = Instant::now();
        assert_eq!(epoll.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20), "the wait ended early");
        efd.signal();
        assert_eq!(epoll.wait(&mut events, None).unwrap(), 1);
        assert_eq!(events[0].token(), 7);
        efd.drain();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        epoll.delete(efd.fd()).unwrap();
        efd.signal();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_listener_reports_a_waiting_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, 1).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = [Event::default(); 4];
        assert_eq!(epoll.wait(&mut events, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_eq!(events[0].token(), 1);
    }

    #[test]
    fn only_resource_errors_pause_accepting() {
        let per_connection =
            |errno| accept_error_is_per_connection(&io::Error::from_raw_os_error(errno));
        // EAGAIN, EINTR, ECONNABORTED, EPROTO, ENETUNREACH, EHOSTUNREACH.
        for errno in [11, 4, 103, 71, 101, 113] {
            assert!(per_connection(errno), "errno {errno}");
        }
        // ENOMEM, ENFILE, EMFILE, ENOBUFS.
        for errno in [12, 23, 24, 105] {
            assert!(!per_connection(errno), "errno {errno}");
        }
    }

    #[test]
    fn wake_signals_only_a_parked_shard() {
        let waker = Waker::new().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(waker.fd(), EPOLLIN, 3).unwrap();
        let mut events = [Event::default(); 4];
        // Awake: a wake is free and leaves nothing to read.
        waker.wake();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        // Parked: the first wake signals, a second finds the flag down.
        waker.park();
        waker.wake();
        waker.wake();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 1);
        waker.unpark();
        waker.clear();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }
}
