//! Transport: TCP and unix-domain sockets behind one address type.
//!
//! Addresses are spelled `tcp:HOST:PORT` or `unix:PATH` (a bare
//! `HOST:PORT` means TCP). `tcp:127.0.0.1:0` binds an ephemeral port; the
//! bound address is reported back so tests and benches can connect.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A serve endpoint address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// `tcp:HOST:PORT`.
    Tcp(String),
    /// `unix:PATH`.
    Unix(PathBuf),
}

impl Addr {
    /// Parses `tcp:HOST:PORT`, `unix:PATH`, or bare `HOST:PORT`.
    pub fn parse(s: &str) -> io::Result<Addr> {
        let s = s.trim();
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty unix socket path",
                ));
            }
            return Ok(Addr::Unix(PathBuf::from(path)));
        }
        let hostport = s.strip_prefix("tcp:").unwrap_or(s);
        if hostport.is_empty() || !hostport.contains(':') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad address {s:?}: expected tcp:HOST:PORT or unix:PATH"),
            ));
        }
        Ok(Addr::Tcp(hostport.to_string()))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected byte stream over either transport.
pub enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Tears down both directions of the connection: the next read on
    /// either end observes EOF or a reset, never a hang.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    /// One `writev` for all of `bufs` — what lets a frame's header,
    /// payload and CRC leave as one syscall and one segment (the trait's
    /// default would send only the first buffer).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Connects to `addr` (TCP sets `TCP_NODELAY`: frames are small and
/// latency-sensitive).
pub fn connect(addr: &Addr) -> io::Result<Stream> {
    match addr {
        Addr::Tcp(hp) => {
            let s = TcpStream::connect(hp.as_str())?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
        Addr::Unix(p) => Ok(Stream::Unix(UnixStream::connect(p)?)),
    }
}

/// A bound, non-blocking listener over either transport.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr`, returning the listener and the concrete bound address
    /// (the ephemeral port resolved for `tcp:...:0`). An existing socket
    /// file at a unix path is removed first — the daemon owns its path.
    pub(crate) fn bind(addr: &Addr) -> io::Result<(Listener, Addr)> {
        match addr {
            Addr::Tcp(hp) => {
                let l = TcpListener::bind(hp.as_str())?;
                l.set_nonblocking(true)?;
                let bound = Addr::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), bound))
            }
            Addr::Unix(p) => {
                if p.exists() {
                    std::fs::remove_file(p)?;
                }
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok((Listener::Unix(l), Addr::Unix(p.clone())))
            }
        }
    }

    /// Non-blocking accept; `Ok(None)` when no connection is pending.
    pub(crate) fn accept(&self) -> io::Result<Option<Stream>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_nodelay(true)?;
                    Ok(Some(Stream::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Stream::Unix(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_vectored_sends_every_buffer_in_one_call() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let parts = [
            IoSlice::new(b"head"),
            IoSlice::new(b"payload"),
            IoSlice::new(b"tail"),
        ];
        assert_eq!(Stream::Unix(a).write_vectored(&parts).unwrap(), 15);
        let mut got = [0u8; 15];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"headpayloadtail");
    }

    #[test]
    fn addr_parsing() {
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:7808").unwrap(),
            Addr::Tcp("127.0.0.1:7808".into())
        );
        assert_eq!(
            Addr::parse("127.0.0.1:7808").unwrap(),
            Addr::Tcp("127.0.0.1:7808".into())
        );
        assert_eq!(
            Addr::parse("unix:/tmp/g80.sock").unwrap(),
            Addr::Unix(PathBuf::from("/tmp/g80.sock"))
        );
        assert!(Addr::parse("unix:").is_err());
        assert!(Addr::parse("justahost").is_err());
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:0").unwrap().to_string(),
            "tcp:127.0.0.1:0"
        );
    }
}
