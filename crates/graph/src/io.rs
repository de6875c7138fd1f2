//! Plain-text edge-list serialization.
//!
//! Format: first line `n m`, then one `u v` pair per line (0-based ids).
//! Lines starting with `#` are comments. This is the interchange format
//! the experiment harness uses to persist workloads.
//!
//! Parsing is **streaming**: [`EdgeListReader`] wraps any [`BufRead`]
//! source and yields edges one at a time from a reused line buffer, so a
//! `10⁷`–`10⁸`-edge file never has to sit in memory as text. The string
//! and file helpers ([`parse_edge_list`], [`read_edge_list`]) are thin
//! layers over the reader, and [`write_edge_list`] streams through a
//! [`BufWriter`] without materializing an `O(m)` string.
//!
//! Every failure mode is a typed error: malformed text is a
//! [`ParseError`], and the file-level helpers ([`read_edge_list`],
//! [`write_edge_list`]) wrap filesystem failures and parse failures in
//! [`EdgeListError`] instead of panicking.

use crate::{Graph, GraphBuilder, NodeId};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from [`parse_edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line `n m` is missing or malformed (this includes a
    /// vertex count too large for the 32-bit node-id space).
    BadHeader(String),
    /// An edge line is malformed or out of range.
    BadEdge {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The edge count in the header does not match the body.
    CountMismatch {
        /// Edges declared in the header.
        declared: usize,
        /// Edges actually parsed.
        found: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(h) => write!(f, "bad header line: {h:?}"),
            ParseError::BadEdge { line, content } => {
                write!(f, "bad edge on line {line}: {content:?}")
            }
            ParseError::CountMismatch { declared, found } => {
                write!(f, "header declares {declared} edges, found {found}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors from the file-level helpers [`read_edge_list`] and
/// [`write_edge_list`]: either the filesystem failed or the file's
/// content did not parse.
#[derive(Debug)]
pub enum EdgeListError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file's content is not a valid edge list.
    Parse(ParseError),
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "edge-list I/O failed: {e}"),
            EdgeListError::Parse(e) => write!(f, "edge-list parse failed: {e}"),
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for EdgeListError {
    fn from(e: std::io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

impl From<ParseError> for EdgeListError {
    fn from(e: ParseError) -> Self {
        EdgeListError::Parse(e)
    }
}

/// Strips one trailing `\n` (or `\r\n`), mirroring what
/// [`str::lines`] yields for a physical line.
fn trim_newline(line: &str) -> &str {
    let line = line.strip_suffix('\n').unwrap_or(line);
    line.strip_suffix('\r').unwrap_or(line)
}

/// Streaming edge-list parser over any [`BufRead`] source.
///
/// The constructor consumes lines until it has parsed the `n m` header
/// (skipping blanks and `#` comments); the iterator then yields one
/// validated edge per non-comment line. The line buffer is reused, so
/// memory stays `O(longest line)` regardless of file size.
///
/// Error behavior matches [`parse_edge_list`] exactly: 1-based physical
/// line numbers (blanks and comments counted), a [`ParseError::BadEdge`]
/// for malformed or out-of-range endpoints, and a final
/// [`ParseError::CountMismatch`] item if the body disagrees with the
/// header. After yielding an error the iterator is fused (returns
/// `None`).
///
/// # Example
///
/// ```
/// use pga_graph::io::EdgeListReader;
///
/// let text = "3 2\n0 1\n1 2\n";
/// let mut r = EdgeListReader::new(text.as_bytes()).unwrap();
/// assert_eq!(r.num_nodes(), 3);
/// assert_eq!(r.declared_edges(), 2);
/// let edges: Result<Vec<_>, _> = r.by_ref().collect();
/// assert_eq!(edges.unwrap().len(), 2);
/// ```
pub struct EdgeListReader<R> {
    reader: R,
    /// Reused line buffer (cleared before every read).
    buf: String,
    /// 1-based number of the most recently read physical line.
    line_no: usize,
    num_nodes: usize,
    declared_edges: usize,
    /// Edges successfully yielded so far.
    found: usize,
    /// Set at end-of-input or on the first error; fuses the iterator.
    finished: bool,
}

impl<R: BufRead> EdgeListReader<R> {
    /// Opens a streaming parser, consuming input up to and including the
    /// `n m` header line.
    ///
    /// # Errors
    ///
    /// [`EdgeListError::Parse`] with [`ParseError::BadHeader`] if the
    /// header is missing, malformed, or declares more than `u32::MAX`
    /// vertices; [`EdgeListError::Io`] if the source fails.
    pub fn new(mut reader: R) -> Result<Self, EdgeListError> {
        let mut buf = String::new();
        let mut line_no = 0;
        let (num_nodes, declared_edges) = loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                return Err(ParseError::BadHeader(String::new()).into());
            }
            line_no += 1;
            let raw = trim_newline(&buf);
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = raw.split_whitespace();
            let n: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseError::BadHeader(raw.to_string()))?;
            let m: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseError::BadHeader(raw.to_string()))?;
            // Node ids are u32 newtypes; a larger declared n would panic
            // in `NodeId::from_index` below, so reject it as a header
            // error.
            if n > u32::MAX as usize {
                return Err(ParseError::BadHeader(raw.to_string()).into());
            }
            break (n, m);
        };
        Ok(EdgeListReader {
            reader,
            buf,
            line_no,
            num_nodes,
            declared_edges,
            found: 0,
            finished: false,
        })
    }

    /// The vertex count `n` declared by the header.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The edge count `m` declared by the header.
    pub fn declared_edges(&self) -> usize {
        self.declared_edges
    }

    /// Drains the reader into a [`Graph`], feeding the builder in chunks
    /// so no intermediate `O(m)` edge vector is materialized beyond one
    /// bounded buffer.
    ///
    /// # Errors
    ///
    /// The first [`EdgeListError`] the stream produces.
    pub fn into_graph(mut self) -> Result<Graph, EdgeListError> {
        /// Edges buffered per [`GraphBuilder::add_edges`] call.
        const CHUNK_EDGES: usize = 1 << 16;
        let mut b = GraphBuilder::new(self.num_nodes);
        let mut chunk = Vec::with_capacity(CHUNK_EDGES.min(self.declared_edges.max(1)));
        for edge in &mut self {
            chunk.push(edge?);
            if chunk.len() >= CHUNK_EDGES {
                b.add_edges(chunk.drain(..));
            }
        }
        b.add_edges(chunk);
        Ok(b.build())
    }
}

impl<R: BufRead> Iterator for EdgeListReader<R> {
    type Item = Result<(NodeId, NodeId), EdgeListError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => {
                    self.finished = true;
                    if self.found != self.declared_edges {
                        return Some(Err(ParseError::CountMismatch {
                            declared: self.declared_edges,
                            found: self.found,
                        }
                        .into()));
                    }
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e.into()));
                }
            }
            self.line_no += 1;
            let raw = trim_newline(&self.buf);
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = raw.split_whitespace();
            let bad = ParseError::BadEdge {
                line: self.line_no,
                content: raw.to_string(),
            };
            let (u, v) = match (
                parts.next().and_then(|s| s.parse::<usize>().ok()),
                parts.next().and_then(|s| s.parse::<usize>().ok()),
            ) {
                (Some(u), Some(v)) if u < self.num_nodes && v < self.num_nodes => (u, v),
                _ => {
                    self.finished = true;
                    return Some(Err(bad.into()));
                }
            };
            self.found += 1;
            return Some(Ok((NodeId::from_index(u), NodeId::from_index(v))));
        }
    }
}

/// Reads and parses an edge-list file through a buffered streaming
/// reader (the file is never held in memory as text).
///
/// # Errors
///
/// [`EdgeListError::Io`] if the file cannot be read, [`EdgeListError::Parse`]
/// if its content is malformed.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<Graph, EdgeListError> {
    let file = std::fs::File::open(path)?;
    EdgeListReader::new(BufReader::new(file))?.into_graph()
}

/// Serializes `g` and writes it to `path` in the edge-list format,
/// streaming through a [`BufWriter`] (no `O(m)` intermediate string).
///
/// # Errors
///
/// [`EdgeListError::Io`] if the file cannot be written.
pub fn write_edge_list(path: impl AsRef<Path>, g: &Graph) -> Result<(), EdgeListError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    write_edge_list_to(&mut w, g)?;
    w.flush()?;
    Ok(())
}

/// Streams `g` in the edge-list format to an arbitrary [`Write`] sink.
///
/// # Errors
///
/// Any error the sink reports.
pub fn write_edge_list_to<W: Write>(w: &mut W, g: &Graph) -> std::io::Result<()> {
    writeln!(w, "{} {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Serializes `g` to the edge-list format as an in-memory string.
///
/// Prefer [`write_edge_list`] for large graphs; this helper exists for
/// tests and small fixtures.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = Vec::new();
    write_edge_list_to(&mut out, g).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("edge lists are ASCII")
}

/// Parses the edge-list format produced by [`to_edge_list`], via the
/// streaming [`EdgeListReader`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    // A `&[u8]` source is infallible and the input is valid UTF-8, so
    // every error the reader can produce here is a parse error.
    let unwrap_parse = |e: EdgeListError| match e {
        EdgeListError::Parse(p) => p,
        EdgeListError::Io(e) => unreachable!("in-memory edge-list read failed: {e}"),
    };
    EdgeListReader::new(text.as_bytes())
        .map_err(unwrap_parse)?
        .into_graph()
        .map_err(unwrap_parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip() {
        let g = generators::clique_chain(3, 4);
        let text = to_edge_list(&g);
        let parsed = parse_edge_list(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn bad_header() {
        assert!(matches!(
            parse_edge_list("oops\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(parse_edge_list(""), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn bad_edge_and_range() {
        assert!(matches!(
            parse_edge_list("2 1\n0 x\n"),
            Err(ParseError::BadEdge { line: 2, .. })
        ));
        assert!(matches!(
            parse_edge_list("2 1\n0 5\n"),
            Err(ParseError::BadEdge { .. })
        ));
    }

    #[test]
    fn count_mismatch() {
        assert!(matches!(
            parse_edge_list("3 5\n0 1\n"),
            Err(ParseError::CountMismatch {
                declared: 5,
                found: 1
            })
        ));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::empty(4);
        assert_eq!(parse_edge_list(&to_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn oversized_vertex_count_is_a_header_error_not_a_panic() {
        let text = format!("{} 0\n", (u32::MAX as u64) + 1);
        assert!(matches!(
            parse_edge_list(&text),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn streaming_reader_yields_edges_and_header() {
        let text = "# hdr comment\n\n4 3\n0 1\n# mid comment\n1 2\n2 3\n";
        let mut r = EdgeListReader::new(text.as_bytes()).unwrap();
        assert_eq!(r.num_nodes(), 4);
        assert_eq!(r.declared_edges(), 3);
        let edges: Vec<_> = r.by_ref().map(|e| e.unwrap()).collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ]
        );
        // Fused after end-of-input.
        assert!(r.next().is_none());
    }

    #[test]
    fn streaming_reader_line_numbers_count_comments() {
        // The bad edge sits on physical line 5 (comment/blank included).
        let text = "# c\n3 2\n\n0 1\nbroken\n";
        let mut r = EdgeListReader::new(text.as_bytes()).unwrap();
        assert!(r.next().unwrap().is_ok());
        match r.next().unwrap() {
            Err(EdgeListError::Parse(ParseError::BadEdge { line, content })) => {
                assert_eq!(line, 5);
                assert_eq!(content, "broken");
            }
            other => panic!("expected BadEdge, got {other:?}"),
        }
        // Fused after the error.
        assert!(r.next().is_none());
    }

    #[test]
    fn streaming_reader_count_mismatch_is_final_item() {
        let mut r = EdgeListReader::new("3 2\n0 1\n".as_bytes()).unwrap();
        assert!(r.next().unwrap().is_ok());
        assert!(matches!(
            r.next().unwrap(),
            Err(EdgeListError::Parse(ParseError::CountMismatch {
                declared: 2,
                found: 1
            }))
        ));
        assert!(r.next().is_none());
    }

    #[test]
    fn streaming_matches_string_parser() {
        let g = generators::grid(5, 7);
        let text = to_edge_list(&g);
        let via_reader = EdgeListReader::new(text.as_bytes())
            .unwrap()
            .into_graph()
            .unwrap();
        assert_eq!(via_reader, parse_edge_list(&text).unwrap());
        assert_eq!(via_reader, g);
    }

    #[test]
    fn write_to_sink_matches_to_edge_list() {
        let g = generators::clique_chain(2, 5);
        let mut out = Vec::new();
        write_edge_list_to(&mut out, &g).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), to_edge_list(&g));
    }

    #[test]
    fn file_roundtrip_and_typed_errors() {
        // Per-process filenames: parallel test runs on a shared host
        // must not race on the same temp paths.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("pga_io_roundtrip_{pid}.edges"));
        let g = generators::grid(3, 4);
        write_edge_list(&path, &g).unwrap();
        assert_eq!(read_edge_list(&path).unwrap(), g);
        std::fs::remove_file(&path).unwrap();

        // Missing file: a typed I/O error with a source, not a panic.
        let err = read_edge_list(dir.join(format!("pga_io_missing_{pid}.edges"))).unwrap_err();
        assert!(matches!(err, EdgeListError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(format!("{err}").contains("I/O"));

        // Malformed content: the parse error is preserved.
        let bad = dir.join(format!("pga_io_bad_content_{pid}.edges"));
        std::fs::write(&bad, "not an edge list\n").unwrap();
        let err = read_edge_list(&bad).unwrap_err();
        assert!(matches!(
            err,
            EdgeListError::Parse(ParseError::BadHeader(_))
        ));
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        let lf = "# c\n3 2\n0 1\n1 2\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(
            parse_edge_list(&crlf).unwrap(),
            parse_edge_list(lf).unwrap()
        );
        // The carriage return is not part of a reported bad line.
        assert!(matches!(
            parse_edge_list("2 1\r\n0 x\r\n"),
            Err(ParseError::BadEdge { line: 2, content }) if content == "0 x"
        ));
    }

    #[test]
    fn comments_only_input_is_a_bad_header() {
        assert!(matches!(
            parse_edge_list("# only a comment\n\n   \n# another\n"),
            Err(ParseError::BadHeader(h)) if h.is_empty()
        ));
        assert!(matches!(
            parse_edge_list("5\n"),
            Err(ParseError::BadHeader(h)) if h == "5"
        ));
    }

    #[test]
    fn edge_line_missing_an_endpoint_is_bad_edge() {
        for (text, line) in [("3 1\n\n2\n", 3), ("3 1\n-1 0\n", 2), ("3 1\n0 3\n", 2)] {
            assert!(
                matches!(parse_edge_list(text), Err(ParseError::BadEdge { line: l, .. }) if l == line),
                "{text:?}"
            );
        }
    }

    #[test]
    fn source_error_mid_stream_is_typed_and_fuses() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        use std::io::Read;
        let source = BufReader::new("3 2\n0 1\n".as_bytes().chain(Broken));
        let mut r = EdgeListReader::new(source).unwrap();
        assert_eq!(r.next().unwrap().unwrap(), (NodeId(0), NodeId(1)));
        match r.next().unwrap() {
            Err(EdgeListError::Io(e)) => assert_eq!(e.to_string(), "disk gone"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert!(r.next().is_none());
    }

    #[test]
    fn into_graph_feeds_the_builder_across_chunks() {
        // More edges than one builder chunk (2^16).
        let g = generators::path(70_001);
        let text = to_edge_list(&g);
        let parsed = EdgeListReader::new(text.as_bytes())
            .unwrap()
            .into_graph()
            .unwrap();
        assert_eq!(parsed.num_edges(), 70_000);
        assert_eq!(parsed, g);
    }

    #[test]
    fn small_families_roundtrip() {
        for g in [
            Graph::empty(0),
            Graph::empty(7),
            generators::path(9),
            generators::star(12),
            generators::clique_chain(3, 5),
            generators::grid(4, 6),
        ] {
            assert_eq!(parse_edge_list(&to_edge_list(&g)).unwrap(), g);
        }
    }

    proptest::proptest! {
        #[test]
        fn random_graphs_roundtrip(n in 2usize..60, p in 0.0f64..0.5, seed in proptest::prelude::any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = generators::gnp(n, p, &mut rng);
            proptest::prop_assert_eq!(parse_edge_list(&to_edge_list(&g)).unwrap(), g);
        }
    }
}
