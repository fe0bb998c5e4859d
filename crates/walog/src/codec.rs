//! The token format of every durable byte: log entries, write-ahead-log
//! records and group snapshots all encode through this module.
//!
//! A payload is ASCII text: a tag (`LE1`, `GS1`, `P`, …), then tokens, each
//! preceded by one space. A token is an unsigned decimal with no sign and
//! no separators, or a length-prefixed string `len:bytes` whose bytes are
//! taken verbatim, so values need no escaping. A few records join two
//! decimals with a raw separator (a ballot is `round:proposer`).
//!
//! The writer is [`TokenWriter`], implemented for `String` (a log entry's
//! encoding) and `Vec<u8>` (a frame being filled in place); the reader is
//! [`Reader`]. Neither allocates per token.

/// Appends tokens to an encoding buffer.
pub trait TokenWriter {
    /// Append `text` as is: a tag or a separator.
    fn raw(&mut self, text: &str);

    /// Append `n` in decimal with no leading space. The digits are produced
    /// in a stack buffer and copied once: an entry carries some forty
    /// integers and is encoded several times per commit, so a `String` per
    /// integer was most of the codec's cost.
    fn decimal(&mut self, mut n: u64) {
        // u64::MAX has 20 decimal digits.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.raw(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
    }

    /// Append a space and `n` in decimal.
    fn num(&mut self, n: u64) {
        self.raw(" ");
        self.decimal(n);
    }

    /// Append a space and `text` as `len:bytes`.
    fn string(&mut self, text: &str) {
        self.num(text.len() as u64);
        self.raw(":");
        self.raw(text);
    }
}

impl TokenWriter for String {
    fn raw(&mut self, text: &str) {
        self.push_str(text);
    }
}

impl TokenWriter for Vec<u8> {
    fn raw(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// Reads tokens front to back. Every method returns `None` when the input
/// does not hold what it asks for; a decoder gives up at the first `None`.
pub struct Reader<'a> {
    rest: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader { rest: input }
    }

    /// Consume `text` exactly: a tag or a separator.
    pub fn tag(&mut self, text: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(text)?;
        Some(())
    }

    /// A decimal with no leading space: ASCII digits only, refused when
    /// empty or past `u64::MAX`.
    pub fn decimal(&mut self) -> Option<u64> {
        let bytes = self.rest.as_bytes();
        let len = bytes
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(bytes.len());
        if len == 0 {
            return None;
        }
        let mut n = 0u64;
        for &b in &bytes[..len] {
            n = n.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        }
        self.rest = &self.rest[len..];
        Some(n)
    }

    /// A space and a decimal.
    pub fn num(&mut self) -> Option<u64> {
        self.tag(" ")?;
        self.decimal()
    }

    /// [`Reader::num`] narrowed to an interned id.
    pub fn id(&mut self) -> Option<u32> {
        u32::try_from(self.num()?).ok()
    }

    /// [`Reader::num`] as an element count, refused when the rest of the
    /// input could not hold that many tokens — so a corrupt count never
    /// becomes a huge allocation.
    pub fn count(&mut self) -> Option<usize> {
        let n = usize::try_from(self.num()?).ok()?;
        (n <= self.rest.len()).then_some(n)
    }

    /// A space and a `len:bytes` string, borrowed from the input.
    pub fn string(&mut self) -> Option<&'a str> {
        let len = usize::try_from(self.num()?).ok()?;
        self.tag(":")?;
        let value = self.rest.get(..len)?;
        self.rest = &self.rest[len..];
        Some(value)
    }

    /// The input is used up: refuses trailing bytes.
    pub fn end(&self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_at_their_extremes() {
        let values = ["", "hello world", "1:2 3", ":", " ", "värde : med 空白"];
        let mut out = String::from("T");
        out.num(u64::MAX);
        out.num(0);
        for value in values {
            out.string(value);
        }
        let mut bytes = Vec::new();
        bytes.raw("T");
        bytes.num(u64::MAX);
        bytes.num(0);
        for value in values {
            bytes.string(value);
        }
        assert_eq!(bytes, out.as_bytes(), "both buffers write the same bytes");

        let mut r = Reader::new(&out);
        r.tag("T").unwrap();
        assert_eq!(r.num(), Some(u64::MAX));
        assert_eq!(r.num(), Some(0));
        for value in values {
            assert_eq!(r.string(), Some(value));
        }
        assert_eq!(r.end(), Some(()));
    }

    /// A ballot is `round:proposer`: two decimals around a `:`.
    fn ballot(text: &str) -> Option<(u64, u64)> {
        let mut r = Reader::new(text);
        let round = r.decimal()?;
        r.tag(":")?;
        let proposer = r.decimal()?;
        r.end()?;
        Some((round, proposer))
    }

    #[test]
    fn a_ballot_reads_round_then_proposer() {
        assert_eq!(ballot("42:17"), Some((42, 17)));
        assert_eq!(ballot("garbage"), None);
        assert_eq!(ballot("1:x"), None);
        assert_eq!(ballot("1 2"), None, "the separator is required");
    }

    #[test]
    fn malformed_tokens_are_refused() {
        // A sign is not a digit, though `u64::from_str` accepts a `+`.
        assert_eq!(Reader::new(" +5").num(), None);
        assert_eq!(Reader::new(" -5").num(), None);
        // One past u64::MAX overflows.
        assert_eq!(Reader::new(" 18446744073709551616").num(), None);
        // A token needs its leading space, and a decimal at least one digit.
        assert_eq!(Reader::new("5").num(), None);
        assert_eq!(Reader::new(" ").num(), None);
        assert_eq!(Reader::new(" 4294967296").id(), None);
        // A string needs its `:`, and its length must stay inside the input
        // and end on a character boundary.
        assert_eq!(Reader::new(" 3abc").string(), None);
        assert_eq!(Reader::new(" 5:abc").string(), None);
        assert_eq!(Reader::new(" 1:é").string(), None);
        assert_eq!(Reader::new(" 2:é").string(), Some("é"));
        // A count the rest of the input could not hold.
        assert_eq!(Reader::new(" 9 1 2").count(), None);
        assert_eq!(Reader::new(" 2 1 2").count(), Some(2));
        // Trailing bytes.
        let mut r = Reader::new(" 1 ");
        assert_eq!(r.num(), Some(1));
        assert_eq!(r.end(), None);
        assert_eq!(Reader::new("LE2").tag("LE1"), None);
    }
}
