//! The blocking wire client: connect, handshake, then one
//! request/response pair per [`Client::query`] call.
//!
//! Server-side engine errors come back as their original
//! [`etable_relational::Error`] class, rehydrated from the stable
//! numeric code on the wire — a client matching on `Error::Parse` works
//! identically against an embedded database or a remote server.

use crate::proto::{
    encode, error_from_wire, read_frame, write_frame, Decoder, Message, WIRE_MAGIC, WIRE_VERSION,
};
use etable_relational::relation::Relation;
use etable_relational::{Error, Result};
use std::io::BufReader;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

/// A connected, handshaken wire client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The epoch reported by the most recent server message.
    epoch: u64,
    /// This connection's string dictionary, mirroring the server's.
    results: Decoder,
}

impl Client {
    /// Connects and performs the `Hello`/`HelloOk` handshake.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Client> {
        let stream = TcpStream::connect(&addr)
            .map_err(|e| Error::Protocol(format!("{addr:?}: connect failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| Error::Protocol(format!("set_nodelay: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| Error::Protocol(format!("stream clone failed: {e}")))?,
        );
        let mut client = Client {
            reader,
            writer: stream,
            epoch: 0,
            results: Decoder::new(),
        };
        let hello = Message::Hello {
            magic: WIRE_MAGIC,
            version: WIRE_VERSION,
        };
        write_frame(&mut client.writer, &encode(&hello))?;
        match client.next_message()? {
            Message::HelloOk { epoch, .. } => {
                client.epoch = epoch;
                Ok(client)
            }
            Message::Error { code, message } => Err(error_from_wire(code, message)),
            other => Err(Error::Protocol(format!("expected HelloOk, got {other:?}"))),
        }
    }

    /// Executes one SQL statement on the server. Engine failures come
    /// back as their original error class (see the module docs);
    /// transport failures as [`Error::Protocol`].
    pub fn query(&mut self, sql: &str) -> Result<Relation> {
        let msg = Message::Query { sql: sql.into() };
        write_frame(&mut self.writer, &encode(&msg))?;
        match self.next_message()? {
            Message::Result { epoch, relation } => {
                self.epoch = epoch;
                Ok(relation)
            }
            Message::Error { code, message } => Err(error_from_wire(code, message)),
            other => Err(Error::Protocol(format!("expected Result, got {other:?}"))),
        }
    }

    /// The database epoch as of the last server message — how a client
    /// observes its own writes becoming visible.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Orderly goodbye: sends `Quit` and waits for the server's close.
    pub fn quit(mut self) -> Result<()> {
        write_frame(&mut self.writer, &encode(&Message::Quit))?;
        // The server answers Quit by closing; drain to the EOF so the
        // socket tears down cleanly on both sides.
        while read_frame(&mut self.reader)?.is_some() {}
        Ok(())
    }

    /// The next server message. A frame that cannot be read or decoded
    /// closes the connection: the server's dictionary already holds the
    /// strings that frame sent, so the two ends would no longer agree on
    /// what a text index means.
    fn next_message(&mut self) -> Result<Message> {
        let msg = match read_frame(&mut self.reader) {
            Ok(Some(payload)) => self.results.decode(&payload),
            Ok(None) => Err(Error::Protocol(
                "server closed the connection mid-exchange".into(),
            )),
            Err(e) => Err(e),
        };
        if msg.is_err() {
            let _ = self.writer.shutdown(Shutdown::Both);
        }
        msg
    }
}
