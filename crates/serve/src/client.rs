//! A small blocking client for the `losac-serve` wire protocol, used by
//! the integration tests and perfbench. One connection, one
//! thread: frames are read in order; each blocking call (submit, ping,
//! cancel…) consumes only the frames that answer it and stashes anything
//! else — a result landing mid-`cancel` is held for the later
//! [`ServeClient::wait_result`] instead of being dropped.

use crate::wire::{Frame, Request, ShutdownMode, StatusInfo, SubmitRequest, WireError};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking JSONL client for one daemon connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Frames read while waiting for something else.
    pending: VecDeque<Frame>,
}

fn wire_io(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

impl ServeClient {
    /// Connect to a running daemon.
    ///
    /// # Errors
    ///
    /// Connection failures surface as [`io::Error`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let write_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            pending: VecDeque::new(),
        })
    }

    /// Send one raw line (tests use this to exercise malformed input).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Send a typed request.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_raw(&request.to_json())
    }

    fn read_frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Frame::parse(&line).map_err(wire_io);
        }
    }

    /// Read the next frame: stashed frames first, then the socket
    /// (blocking).
    ///
    /// # Errors
    ///
    /// EOF (`UnexpectedEof`), socket errors, or a line that does not
    /// parse as a frame (`InvalidData`).
    pub fn next_frame(&mut self) -> io::Result<Frame> {
        match self.pending.pop_front() {
            Some(frame) => Ok(frame),
            None => self.read_frame(),
        }
    }

    /// Read frames until `want` consumes one; everything else is
    /// stashed for later calls.
    fn wait_for<T>(&mut self, mut want: impl FnMut(Frame) -> Result<T, Frame>) -> io::Result<T> {
        // Frames already stashed can never answer a request sent *after*
        // they arrived, so only fresh reads are offered to `want`.
        loop {
            let frame = self.read_frame()?;
            match want(frame) {
                Ok(value) => return Ok(value),
                Err(other) => self.pending.push_back(other),
            }
        }
    }

    /// Submit a sweep and wait for its `accepted` frame.
    ///
    /// # Errors
    ///
    /// Socket errors, or `InvalidData` carrying the server's
    /// [`WireError`] when the submit was rejected.
    pub fn submit(&mut self, submit: &SubmitRequest) -> io::Result<String> {
        self.send(&Request::Submit(Box::new(submit.clone())))?;
        self.wait_for(|frame| match frame {
            Frame::Accepted { id, .. } => Ok(Ok(id)),
            Frame::Error(err) => Ok(Err(wire_io(err))),
            other => Err(other),
        })?
    }

    /// Block until request `id`'s terminal frame arrives. Returns the
    /// result frame and every `event` frame seen for it (empty unless
    /// the submit subscribed). Stashed frames are read first, in arrival
    /// order; every frame for another request, its events included, is
    /// stashed for a later call.
    ///
    /// # Errors
    ///
    /// Socket errors, a server-reported [`WireError`] for this id, or a
    /// `cancelled` ack (the request was dequeued before running —
    /// surfaced as `Interrupted`).
    pub fn wait_result(&mut self, id: &str) -> io::Result<(Frame, Vec<Frame>)> {
        let mut events = Vec::new();
        let mut stashed = std::mem::take(&mut self.pending).into_iter();
        loop {
            let frame = match stashed.next() {
                Some(frame) => frame,
                None => self.read_frame()?,
            };
            let terminal = match frame {
                Frame::Result { id: ref rid, .. } if rid == id => Ok(frame),
                Frame::Event { id: ref eid, .. } if eid == id => {
                    events.push(frame);
                    continue;
                }
                Frame::Cancelled { id: cid } if cid == id => Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("request {id:?} was cancelled before running"),
                )),
                Frame::Error(err) if err.id.as_deref() == Some(id) => Err(wire_io(err)),
                other => {
                    self.pending.push_back(other);
                    continue;
                }
            };
            self.pending.extend(stashed);
            return terminal.map(|frame| (frame, events));
        }
    }

    /// Ask for the daemon's status.
    ///
    /// # Errors
    ///
    /// Socket errors or a server-reported [`WireError`].
    pub fn status(&mut self) -> io::Result<StatusInfo> {
        self.send(&Request::Status)?;
        self.wait_for(|frame| match frame {
            Frame::Status(info) => Ok(Ok(info)),
            Frame::Error(err) => Ok(Err(wire_io(err))),
            other => Err(other),
        })?
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Socket errors or a server-reported [`WireError`].
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&Request::Ping)?;
        self.wait_for(|frame| match frame {
            Frame::Pong => Ok(Ok(())),
            Frame::Error(err) => Ok(Err(wire_io(err))),
            other => Err(other),
        })?
    }

    /// Cancel a request by id; resolves once the `cancelled` ack (or an
    /// `unknown_id` error) arrives.
    ///
    /// # Errors
    ///
    /// Socket errors or the server's [`WireError`].
    pub fn cancel(&mut self, id: &str) -> io::Result<()> {
        self.send(&Request::Cancel { id: id.to_owned() })?;
        let id = id.to_owned();
        self.wait_for(move |frame| match frame {
            Frame::Cancelled { id: cid } if cid == id => Ok(Ok(())),
            Frame::Error(err) if err.id.as_deref() == Some(&id) => Ok(Err(wire_io(err))),
            other => Err(other),
        })?
    }

    /// Request shutdown; resolves once the `shutting_down` ack arrives.
    ///
    /// # Errors
    ///
    /// Socket errors or the server's [`WireError`].
    pub fn shutdown(&mut self, mode: ShutdownMode) -> io::Result<()> {
        self.send(&Request::Shutdown { mode })?;
        self.wait_for(|frame| match frame {
            Frame::ShuttingDown { .. } => Ok(Ok(())),
            Frame::Error(err) => Ok(Err(wire_io(err))),
            other => Err(other),
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_result, WIRE_VERSION};
    use std::net::TcpListener;

    #[test]
    fn waiting_on_one_request_keeps_another_requests_events() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("the client connects");
            let event_b = format!(
                r#"{{"v":{WIRE_VERSION},"type":"event","id":"b","name":"engine.job.done","fields":{{}}}}"#
            );
            for line in [
                event_b,
                frame_result("b", Vec::new(), "{}".to_owned()),
                frame_result("a", Vec::new(), "{}".to_owned()),
            ] {
                writeln!(stream, "{line}").expect("write a frame");
            }
        });
        let mut client = ServeClient::connect(addr).expect("connect");
        let (_, a_events) = client.wait_result("a").expect("a's result");
        assert!(a_events.is_empty());
        let (b, b_events) = client.wait_result("b").expect("b's stashed result");
        assert!(matches!(b, Frame::Result { ref id, .. } if id == "b"));
        assert_eq!(b_events.len(), 1, "b's event was dropped");
        assert!(matches!(&b_events[0], Frame::Event { id, .. } if id == "b"));
        server.join().expect("the scripted server ran");
    }
}
