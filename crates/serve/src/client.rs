//! A minimal blocking client for the line-delimited JSON protocol —
//! shared by the `loadgen` binary and the integration tests.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde_json::Value;

use crate::protocol::Request;

/// One connection to a server. Requests and responses are line-oriented;
/// [`Client::request`] is the simple one-in-one-out path, while
/// [`Client::send`]/[`Client::recv`] let callers pipeline several infer
/// requests before reading (responses carry the request `id` for
/// correlation).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // a request is one small write; Nagle would hold the next one back
        // until the server acknowledges this one
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line without waiting for the response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        // line and newline in one segment, never two
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Reads the next response line.
    ///
    /// # Errors
    ///
    /// Fails on EOF (server closed the connection) or malformed JSON.
    pub fn recv(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}")))
    }

    /// Sends one request and waits for one response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Value> {
        self.send(req)?;
        self.recv()
    }

    /// One inference round trip.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn infer(&mut self, model: &str, id: &str, seed: u64) -> std::io::Result<Value> {
        self.request(&Request::Infer {
            id: id.to_string(),
            model: model.to_string(),
            seed,
        })
    }

    /// Requests the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.request(&Request::Stats)
    }

    /// Initiates graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.request(&Request::Shutdown)
    }
}
