//! A closed-loop `bfbp-wire/1` client built on the wire module's public
//! encoders and decoders, and the frames a trace is cut into.

use std::io::{BufReader, Write};
use std::net::TcpStream;

use bfbp_sim::wire::{
    decode_predict_reply_into, encode_predict_batch, ErrorCode, Frame, FrameKind, FrameReader,
    SessionStats, WIRE_PROTOCOL,
};
use bfbp_trace::record::{BranchRecord, Trace};

/// One frame's worth of a trace: records `start..end`, all conditional
/// (a `PREDICT_BATCH`) or all not (an `OUTCOME_BATCH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First record.
    pub start: usize,
    /// One past the last record.
    pub end: usize,
    /// Whether the run is conditional branches.
    pub conditional: bool,
}

/// A trace laid out for the wire: its records in structure-of-arrays
/// form plus the runs it is cut into.
#[derive(Debug, Clone)]
pub struct FrameSet {
    /// Trace name.
    pub name: String,
    /// The records, in order.
    pub records: Vec<BranchRecord>,
    /// Per-record program counters.
    pub pcs: Vec<u64>,
    /// Per-record targets.
    pub targets: Vec<u64>,
    /// Per-record instruction gaps.
    pub gaps: Vec<u32>,
    /// Per-record directions.
    pub takens: Vec<bool>,
    /// Maximal same-kind runs of at most `max` records.
    pub runs: Vec<Run>,
}

impl FrameSet {
    /// Cuts `trace` into runs of at most `max` records, the way a
    /// streaming client batches it.
    pub fn cut(trace: &Trace, max: usize) -> Self {
        let records = trace.records().to_vec();
        let mut runs = Vec::new();
        let mut i = 0;
        while i < records.len() {
            let conditional = records[i].kind.is_conditional();
            let mut j = i + 1;
            while j < records.len()
                && j - i < max
                && records[j].kind.is_conditional() == conditional
            {
                j += 1;
            }
            runs.push(Run {
                start: i,
                end: j,
                conditional,
            });
            i = j;
        }
        Self {
            name: trace.name().to_owned(),
            pcs: records.iter().map(|r| r.pc).collect(),
            targets: records.iter().map(|r| r.target).collect(),
            gaps: records.iter().map(|r| r.non_branch_insts).collect(),
            takens: records.iter().map(|r| r.taken).collect(),
            records,
            runs,
        }
    }

    /// Encodes run `run` as a `PREDICT_BATCH` frame into `out`.
    pub fn encode_predict(&self, session: u64, run: Run, out: &mut Vec<u8>) {
        let r = run.start..run.end;
        encode_predict_batch(
            session,
            &self.pcs[r.clone()],
            &self.targets[r.clone()],
            &self.gaps[r.clone()],
            &self.takens[r],
            out,
        );
    }

    /// Encodes run `run` as an `OUTCOME_BATCH` frame into `out`.
    pub fn encode_outcome(&self, session: u64, run: Run, out: &mut Vec<u8>) {
        Frame::OutcomeBatch {
            session,
            records: self.records[run.start..run.end].to_vec(),
        }
        .encode_into(out);
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server shed the request with a `RETRY` error frame.
    Shed,
    /// Anything else (transport, framing, a non-retry error frame).
    Other(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Shed => f.write_str("shed with RETRY"),
            ClientError::Other(e) => f.write_str(e),
        }
    }
}

fn other(e: impl std::fmt::Display) -> ClientError {
    ClientError::Other(e.to_string())
}

/// One connection, one outstanding request at a time.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    rd: BufReader<TcpStream>,
    reader: FrameReader,
    out: Vec<u8>,
    miss: Vec<bool>,
}

impl WireClient {
    /// Connects and performs the `HELLO` handshake.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(other)?;
        stream.set_nodelay(true).map_err(other)?;
        let rd = BufReader::with_capacity(64 * 1024, stream.try_clone().map_err(other)?);
        let mut client = Self {
            stream,
            rd,
            reader: FrameReader::new(),
            out: Vec::new(),
            miss: Vec::new(),
        };
        match client.request(&Frame::Hello {
            protocol: WIRE_PROTOCOL.to_owned(),
            client: "perfbench".to_owned(),
        })? {
            Frame::HelloAck { .. } => Ok(client),
            f => Err(other(format!("unexpected {:?} to HELLO", f.kind()))),
        }
    }

    fn send_out(&mut self) -> Result<(), ClientError> {
        self.stream.write_all(&self.out).map_err(other)
    }

    fn error_of(frame: Frame) -> ClientError {
        match frame {
            Frame::Error {
                code: ErrorCode::Retry,
                ..
            } => ClientError::Shed,
            Frame::Error { code, message, .. } => other(format!("server error {code}: {message}")),
            f => other(format!("unexpected {:?} reply", f.kind())),
        }
    }

    /// Sends a control frame and returns the reply (error frames become
    /// errors).
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        frame.encode_into(&mut self.out);
        self.send_out()?;
        let reply = self
            .reader
            .read_frame(&mut self.rd)
            .map_err(other)?
            .ok_or_else(|| other("server closed the connection"))?;
        match reply {
            Frame::Error { .. } => Err(Self::error_of(reply)),
            f => Ok(f),
        }
    }

    /// Opens session `session` running `spec`.
    pub fn open(&mut self, session: u64, spec: &str) -> Result<(), ClientError> {
        match self.request(&Frame::Open {
            session,
            spec: spec.to_owned(),
        })? {
            Frame::OpenAck { .. } => Ok(()),
            f => Err(Self::error_of(f)),
        }
    }

    /// Closes session `session`, returning its final counters.
    pub fn close(&mut self, session: u64) -> Result<SessionStats, ClientError> {
        match self.request(&Frame::Close { session })? {
            Frame::CloseAck { stats, .. } => Ok(stats),
            f => Err(Self::error_of(f)),
        }
    }

    /// Asks the server to stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Frame::Shutdown)? {
            Frame::ShutdownAck { .. } => Ok(()),
            f => Err(Self::error_of(f)),
        }
    }

    /// Sends one run of `frames` through `session` and waits for the
    /// reply: the miss flags of a conditional run, empty for an outcome
    /// run.
    pub fn send_run(
        &mut self,
        session: u64,
        frames: &FrameSet,
        run: Run,
    ) -> Result<&[bool], ClientError> {
        if run.conditional {
            frames.encode_predict(session, run, &mut self.out);
        } else {
            frames.encode_outcome(session, run, &mut self.out);
        }
        self.send_out()?;
        let (kind, payload) = self
            .reader
            .read_from(&mut self.rd)
            .map_err(other)?
            .ok_or_else(|| other("server closed the connection"))?;
        match kind {
            FrameKind::PredictReply if run.conditional => {
                let echoed = decode_predict_reply_into(payload, &mut self.miss).map_err(other)?;
                if echoed != session {
                    return Err(other("reply for a different session"));
                }
                Ok(&self.miss)
            }
            FrameKind::OutcomeAck if !run.conditional => Ok(&[]),
            kind => {
                let frame = Frame::decode(kind, payload).map_err(other)?;
                Err(Self::error_of(frame))
            }
        }
    }
}
