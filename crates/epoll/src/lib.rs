//! Minimal epoll + eventfd bindings for the serve reactor.
//!
//! The workspace builds fully offline, so these are raw `extern "C"`
//! declarations against the C library the Rust standard library already
//! links — no external crates. All `unsafe` in the serve reactor lives
//! in this one small crate, behind a safe RAII API:
//!
//! * [`Epoll`] — `epoll_create1` / `epoll_ctl` / `epoll_wait`, with
//!   `EINTR` retried and the fd closed on drop.
//! * [`EventFd`] — a nonblocking `eventfd` used as the reactor's wakeup
//!   channel: any thread [`EventFd::notify`]s, the reactor's
//!   `epoll_wait` returns, and the reactor [`EventFd::drain`]s.
//!
//! On non-Linux targets every constructor returns
//! [`std::io::ErrorKind::Unsupported`], so callers compile without any
//! `cfg` of their own and fail at run time, when they first need one.

#![warn(missing_docs)]

/// The fd (or token) is readable.
pub const EPOLLIN: u32 = 0x001;
/// The fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// Interrupt from the keyboard (`kill -INT`, ^C).
pub const SIGINT: i32 = 2;
/// Unblockable kill.
pub const SIGKILL: i32 = 9;
/// Polite termination request (`kill`'s default).
pub const SIGTERM: i32 = 15;

/// One ready event out of [`Epoll::wait`]: the readiness bits and the
/// `u64` token registered with the fd.
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// The token passed to [`Epoll::add`] / [`Epoll::modify`].
    pub token: u64,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;
    const SFD_CLOEXEC: i32 = 0x80000;
    const SFD_NONBLOCK: i32 = 0x800;
    const SIG_BLOCK: i32 = 0;
    /// `sizeof(struct signalfd_siginfo)`: reads must be exact multiples.
    const SIGINFO_LEN: usize = 128;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
    /// ABI there has no padding between `events` and `data`); naturally
    /// aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// The C library's `sigset_t` (glibc reserves 1024 bits). Built only
    /// through `sigemptyset`/`sigaddset`, never by hand.
    #[repr(C)]
    struct SigSet {
        bits: [u64; 16],
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn sigemptyset(set: *mut SigSet) -> i32;
        fn sigaddset(set: *mut SigSet, signum: i32) -> i32;
        fn pthread_sigmask(how: i32, set: *const SigSet, oldset: *mut SigSet) -> i32;
        fn signalfd(fd: i32, mask: *const SigSet, flags: i32) -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
        fn raise(sig: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance (see crate docs).
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates a close-on-exec epoll instance.
        pub fn new() -> io::Result<Epoll> {
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
        }

        /// Starts watching `fd` for `events`, reporting `token` back.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes the watched events/token of a registered `fd`.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Stops watching `fd`.
        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one registered fd is ready or
        /// `timeout_ms` elapses (`-1` = forever, `0` = poll). Fills
        /// `out` from the front and returns how many entries are valid.
        /// `EINTR` is retried internally.
        pub fn wait(&self, out: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
            if out.is_empty() {
                return Ok(0);
            }
            let mut raw = vec![EpollEvent::default(); out.len()];
            loop {
                let n = unsafe {
                    epoll_wait(self.fd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
                };
                match cvt(n) {
                    Ok(n) => {
                        let n = n as usize;
                        for (slot, ev) in out.iter_mut().zip(&raw[..n]) {
                            // Copy fields out of the (possibly packed)
                            // kernel struct; never take references in.
                            let (events, data) = (ev.events, ev.data);
                            *slot = Event {
                                events,
                                token: data,
                            };
                        }
                        return Ok(n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking eventfd wakeup channel (see crate docs).
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        /// Creates a nonblocking, close-on-exec eventfd at count 0.
        pub fn new() -> io::Result<EventFd> {
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(EventFd { fd })
        }

        /// The raw fd, for registering with an [`Epoll`].
        pub fn as_raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Wakes whoever is `epoll_wait`ing on this fd. Adding to an
        /// eventfd counter never blocks short of `u64::MAX - 1` pending
        /// wakeups; errors are impossible in practice and ignored —
        /// a lost wakeup surfaces as one reactor tick of latency.
        pub fn notify(&self) {
            let one: u64 = 1;
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Consumes all pending wakeups, resetting the fd to unarmed.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // Nonblocking: one read empties the counter; EAGAIN means it
            // was already empty.
            let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking signalfd: the named signals are blocked for the
    /// whole process (so their default dispositions never fire) and
    /// delivered through this fd instead (see crate docs).
    #[derive(Debug)]
    pub struct SignalFd {
        fd: RawFd,
    }

    impl SignalFd {
        /// Blocks `signals` process-wide and opens a nonblocking,
        /// close-on-exec signalfd delivering them. Call on the main
        /// thread before spawning workers: spawned threads inherit the
        /// blocked mask, so the signals only ever surface here.
        pub fn new(signals: &[i32]) -> io::Result<SignalFd> {
            let mut mask = SigSet { bits: [0; 16] };
            unsafe {
                sigemptyset(&mut mask);
                for &s in signals {
                    if sigaddset(&mut mask, s) != 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("invalid signal number {s}"),
                        ));
                    }
                }
                let rc = pthread_sigmask(SIG_BLOCK, &mask, std::ptr::null_mut());
                if rc != 0 {
                    return Err(io::Error::from_raw_os_error(rc));
                }
                let fd = cvt(signalfd(-1, &mask, SFD_CLOEXEC | SFD_NONBLOCK))?;
                Ok(SignalFd { fd })
            }
        }

        /// The raw fd, for registering with an [`Epoll`].
        pub fn as_raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Takes one pending signal, if any: `Some(signo)` or `None`
        /// (nothing pending — the fd is nonblocking).
        pub fn try_take(&self) -> Option<i32> {
            let mut buf = [0u8; SIGINFO_LEN];
            let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
            if n as usize != SIGINFO_LEN {
                return None;
            }
            // ssi_signo is the struct's first field, a little-endian u32.
            Some(u32::from_ne_bytes([buf[0], buf[1], buf[2], buf[3]]) as i32)
        }
    }

    impl Drop for SignalFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// Sends `sig` to process `pid` (`kill(2)`).
    pub fn kill_process(pid: u32, sig: i32) -> io::Result<()> {
        cvt(unsafe { kill(pid as i32, sig) }).map(|_| ())
    }

    /// Sends `sig` to the calling thread (`raise(3)`). With the signal
    /// blocked it stays pending for this thread, where a [`SignalFd`]
    /// read from the same thread picks it up — the self-test hook.
    pub fn raise_signal(sig: i32) -> io::Result<()> {
        cvt(unsafe { raise(sig) }).map(|_| ())
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Event;
    use std::io;
    // On non-Linux targets RawFd comes from different module paths;
    // accept any integer fd so callers compile unchanged.
    type RawFd = i32;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll is only available on Linux",
        ))
    }

    /// Stub epoll for non-Linux targets; every constructor fails with
    /// [`io::ErrorKind::Unsupported`].
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        /// Always fails off Linux.
        pub fn new() -> io::Result<Epoll> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn modify(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn del(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _out: &mut [Event], _timeout_ms: i32) -> io::Result<usize> {
            unsupported()
        }
    }

    /// Stub eventfd for non-Linux targets.
    #[derive(Debug)]
    pub struct EventFd {}

    impl EventFd {
        /// Always fails off Linux.
        pub fn new() -> io::Result<EventFd> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn as_raw_fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn notify(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }

    /// Stub signalfd for non-Linux targets.
    #[derive(Debug)]
    pub struct SignalFd {}

    impl SignalFd {
        /// Always fails off Linux.
        pub fn new(_signals: &[i32]) -> io::Result<SignalFd> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn as_raw_fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn try_take(&self) -> Option<i32> {
            None
        }
    }

    /// Always fails off Linux.
    pub fn kill_process(_pid: u32, _sig: i32) -> io::Result<()> {
        unsupported()
    }

    /// Always fails off Linux.
    pub fn raise_signal(_sig: i32) -> io::Result<()> {
        unsupported()
    }
}

pub use sys::{kill_process, raise_signal, Epoll, EventFd, SignalFd};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Unarmed: a zero-timeout wait sees nothing.
        let mut events = [Event::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // Notified (twice — notifications coalesce): readable, token 7.
        efd.notify();
        efd.notify();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert_ne!(events[0].events & EPOLLIN, 0);

        // Drained: unarmed again.
        efd.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_reports_listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut events = [Event::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no pending accepts");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 1, "accept readiness carries the token");

        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        ep.add(accepted.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 2).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "nothing sent yet");

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 2);

        let mut buf = [0u8; 8];
        let read = (&accepted).read(&mut buf).unwrap();
        assert_eq!(&buf[..read], b"ping");

        // Peer hangup surfaces as RDHUP on the watched side.
        drop(client);
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & (EPOLLRDHUP | EPOLLHUP | EPOLLIN), 0);

        ep.del(accepted.as_raw_fd()).unwrap();
        ep.del(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_switches_interest_between_read_and_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // Watch for writable: an idle socket's send buffer has room.
        ep.add(server.as_raw_fd(), EPOLLOUT, 9).unwrap();
        let mut events = [Event::default(); 4];
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & EPOLLOUT, 0);

        // Switch to read interest: quiet until the peer sends.
        ep.modify(server.as_raw_fd(), EPOLLIN, 9).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        (&client).write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut events, 2000).unwrap(), 1);
        drop(client);
    }

    #[test]
    fn signalfd_delivers_a_self_raised_signal() {
        // SIGUSR1, raised thread-directed at this test thread: the
        // blocked mask makes it pend here instead of running its default
        // disposition, and the signalfd read (same thread) takes it.
        const SIGUSR1: i32 = 10;
        let sfd = SignalFd::new(&[SIGUSR1]).unwrap();
        assert_eq!(sfd.try_take(), None, "nothing pending yet");

        raise_signal(SIGUSR1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match sfd.try_take() {
                Some(s) => {
                    assert_eq!(s, SIGUSR1);
                    break;
                }
                None if Instant::now() < deadline => std::thread::yield_now(),
                None => panic!("signal never arrived on the signalfd"),
            }
        }
        assert_eq!(sfd.try_take(), None, "drained");
    }

    #[test]
    fn wait_honors_timeout() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.as_raw_fd(), EPOLLIN, 0).unwrap();
        let mut events = [Event::default(); 1];
        let t0 = Instant::now();
        assert_eq!(ep.wait(&mut events, 50).unwrap(), 0);
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(40), "{waited:?}");
        assert!(waited < Duration::from_secs(5), "{waited:?}");
    }
}
