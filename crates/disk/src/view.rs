//! Typed zero-copy views over sector word slabs.
//!
//! [`Sector`] and [`SectorBuf`] are `#[repr(C)]` with the parts in disk
//! order (header, label, value), so a sector can be treated as one
//! contiguous slab of `HEADER_WORDS + LABEL_WORDS + DATA_WORDS` words.
//! This module gives the hot paths typed accessors over those words
//! *without decoding*: a [`LabelView`] borrows the seven label words in
//! place and answers the common questions (is it free? which page? where is
//! the next link?) with direct word reads and slice compares, where the
//! older idiom built a full [`crate::Label`] struct word by word just to
//! classify the sector.
//!
//! The views are read-only borrows over plain `u16` slices — no transmutes,
//! no lifetimes beyond the borrow, and nothing here can touch the simulated
//! clock or the §3.3 semantics. The label discipline is enforced where it
//! always was: in [`crate::sector::apply`] and the drive. A lent
//! [`SectorView`] carries one more fact, the instant its sector left the
//! platter ([`SectorView::at`]), which the drive and the drive array move
//! the shared clock to before each lend.

use alto_sim::SimTime;

use crate::geometry::DiskAddress;
use crate::label::{Label, LABEL_WORDS};
use crate::sector::{Sector, SectorBuf, DATA_WORDS, HEADER_WORDS};

/// Total words in one sector: header + label + value.
pub const SECTOR_WORDS: usize = HEADER_WORDS + LABEL_WORDS + DATA_WORDS;

/// The encoded free label (all ones), for direct slice comparison.
const FREE_WORDS: [u16; LABEL_WORDS] = [u16::MAX; LABEL_WORDS];

/// A borrowed, typed view of seven encoded label words.
///
/// Field offsets follow §3.1: `[fid0, fid1, version, page_number, length,
/// next, prev]`. All accessors are direct word reads; classification
/// predicates are slice compares against the encoded special labels, so a
/// scan over thousands of sectors (the Scavenger sweep, the free-page
/// census) never materializes a [`Label`] per sector.
#[derive(Debug, Clone, Copy)]
pub struct LabelView<'a> {
    words: &'a [u16; LABEL_WORDS],
}

impl<'a> LabelView<'a> {
    /// Views the given label words.
    pub fn new(words: &'a [u16; LABEL_WORDS]) -> LabelView<'a> {
        LabelView { words }
    }

    /// The raw words, in disk order.
    pub fn words(&self) -> &'a [u16; LABEL_WORDS] {
        self.words
    }

    /// `F`: the two-word file identifier.
    pub fn fid(&self) -> [u16; 2] {
        [self.words[0], self.words[1]]
    }

    /// `V`: the version word.
    pub fn version(&self) -> u16 {
        self.words[2]
    }

    /// `PN`: the page number.
    pub fn page_number(&self) -> u16 {
        self.words[3]
    }

    /// `L`: the byte count of this page.
    pub fn length(&self) -> u16 {
        self.words[4]
    }

    /// `NL`: hint address of the next page.
    pub fn next(&self) -> DiskAddress {
        DiskAddress(self.words[5])
    }

    /// `PL`: hint address of the previous page.
    pub fn prev(&self) -> DiskAddress {
        DiskAddress(self.words[6])
    }

    /// True if these are the free-sector words (all ones) — one 7-word
    /// compare, no decode.
    pub fn is_free(&self) -> bool {
        *self.words == FREE_WORDS
    }

    /// True if these words quarantine a permanently bad sector.
    pub fn is_bad(&self) -> bool {
        self.words[2] == Label::BAD_VERSION
            && self.words[0] == u16::MAX
            && self.words[1] == u16::MAX
    }

    /// True if the words belong to a live file page.
    pub fn is_in_use(&self) -> bool {
        !self.is_free() && !self.is_bad()
    }

    /// True if the absolute fields (`F`, `V`, `PN` — label words 0..4)
    /// match `intended` exactly. The software closure of the §3.3 check:
    /// absolutes that encode as 0 are hardware wildcards, so the fs layer
    /// re-verifies them after every successful check, and this compare is
    /// that verification without a decode.
    pub fn absolutes_match(&self, intended: &Label) -> bool {
        self.words[0] == intended.fid[0]
            && self.words[1] == intended.fid[1]
            && self.words[2] == intended.version
            && self.words[3] == intended.page_number
    }

    /// Decodes into an owned [`Label`] (for callers that need to keep it).
    pub fn decode(&self) -> Label {
        Label::decode(self.words)
    }
}

/// A borrowed, typed view of a whole sector's words — on-disk
/// ([`SectorView::new`]) or memory-side ([`SectorView::of_buf`]), so code
/// written against the view (the zero-copy batch read's visitor, say) works
/// identically whether the words were lent in place or staged through a
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct SectorView<'a> {
    header: &'a [u16; HEADER_WORDS],
    label: &'a [u16; LABEL_WORDS],
    data: &'a [u16; DATA_WORDS],
    at: SimTime,
}

impl<'a> SectorView<'a> {
    /// Views the given sector, stamped [`SimTime::ZERO`].
    pub fn new(sector: &'a Sector) -> SectorView<'a> {
        SectorView {
            header: &sector.header,
            label: &sector.label,
            data: &sector.data,
            at: SimTime::ZERO,
        }
    }

    /// Views the given memory-side buffer through the same lens, stamped
    /// [`SimTime::ZERO`].
    pub fn of_buf(buf: &'a SectorBuf) -> SectorView<'a> {
        SectorView {
            header: &buf.header,
            label: &buf.label,
            data: &buf.data,
            at: SimTime::ZERO,
        }
    }

    /// The same view, stamped with the instant `at` its sector left the
    /// platter.
    pub fn stamped(self, at: SimTime) -> SectorView<'a> {
        SectorView { at, ..self }
    }

    /// The instant the viewed sector left the platter: the end of its
    /// transfer on the serving arm's timeline. A disk lends each view with
    /// the shared clock at this instant.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// The header words: `[pack_number, disk_address]`.
    pub fn header(&self) -> &'a [u16; HEADER_WORDS] {
        self.header
    }

    /// A typed view of the label words.
    pub fn label(&self) -> LabelView<'a> {
        LabelView::new(self.label)
    }

    /// The data words.
    pub fn data(&self) -> &'a [u16; DATA_WORDS] {
        self.data
    }
}

/// One write's memory-side words for the zero-copy batch write path
/// ([`crate::Disk::do_batch_write`]): the header and label patterns the
/// §3.3 check matches against the sector (owned — they are two and seven
/// words), and the data to write, borrowed from wherever the caller parks
/// dirty pages so the 256 words are never staged through an intermediate
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct WriteSource<'a> {
    /// Check pattern for the header words (`[pack_number, disk_address]`;
    /// 0 is the hardware wildcard).
    pub header: [u16; HEADER_WORDS],
    /// Check pattern for the label words (encoded; 0 words are wildcards).
    pub label: [u16; LABEL_WORDS],
    /// The data words to write once both checks pass.
    pub data: &'a [u16; DATA_WORDS],
}

/// A borrowed, typed view of a memory-side sector buffer.
#[derive(Debug, Clone, Copy)]
pub struct SectorBufView<'a> {
    buf: &'a SectorBuf,
}

impl<'a> SectorBufView<'a> {
    /// Views the given buffer.
    pub fn new(buf: &'a SectorBuf) -> SectorBufView<'a> {
        SectorBufView { buf }
    }

    /// The header words.
    pub fn header(&self) -> &'a [u16; HEADER_WORDS] {
        &self.buf.header
    }

    /// A typed view of the label words.
    pub fn label(&self) -> LabelView<'a> {
        LabelView::new(&self.buf.label)
    }

    /// The data words.
    pub fn data(&self) -> &'a [u16; DATA_WORDS] {
        &self.buf.data
    }
}

impl Sector {
    /// A typed view of this sector's label words (no decode).
    pub fn label_view(&self) -> LabelView<'_> {
        LabelView::new(&self.label)
    }
}

impl SectorBuf {
    /// A typed view of this buffer's label words (no decode).
    pub fn label_view(&self) -> LabelView<'_> {
        LabelView::new(&self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Label {
        Label {
            fid: [0x1234, 0x5678],
            version: 1,
            page_number: 3,
            length: 512,
            next: DiskAddress(99),
            prev: DiskAddress(97),
        }
    }

    #[test]
    fn view_reads_every_field_without_decoding() {
        let words = sample().encode();
        let v = LabelView::new(&words);
        assert_eq!(v.fid(), [0x1234, 0x5678]);
        assert_eq!(v.version(), 1);
        assert_eq!(v.page_number(), 3);
        assert_eq!(v.length(), 512);
        assert_eq!(v.next(), DiskAddress(99));
        assert_eq!(v.prev(), DiskAddress(97));
        assert_eq!(v.decode(), sample());
    }

    #[test]
    fn classification_matches_decoded_label() {
        for label in [sample(), Label::FREE, Label::BAD, Label::WILDCARD] {
            let words = label.encode();
            let v = LabelView::new(&words);
            assert_eq!(v.is_free(), label.is_free(), "{label:?}");
            assert_eq!(v.is_bad(), label.is_bad(), "{label:?}");
            assert_eq!(v.is_in_use(), label.is_in_use(), "{label:?}");
        }
    }

    #[test]
    fn absolutes_match_checks_only_the_absolute_words() {
        let intended = sample();
        let mut words = intended.encode();
        // Hints may differ: still a match.
        words[5] = 0xBEEF;
        words[6] = 0xF00D;
        assert!(LabelView::new(&words).absolutes_match(&intended));
        // An absolute differs: no match.
        words[3] = 4;
        assert!(!LabelView::new(&words).absolutes_match(&intended));
    }

    #[test]
    fn sector_views_expose_the_parts_in_place() {
        let mut s = Sector::formatted(7, DiskAddress(42));
        s.label = sample().encode();
        s.data[0] = 0xABCD;
        let v = SectorView::new(&s);
        assert_eq!(v.header(), &[7, 42]);
        assert_eq!(v.label().page_number(), 3);
        assert_eq!(v.data()[0], 0xABCD);
        assert_eq!(s.label_view().length(), 512);

        let mut b = SectorBuf::with_label(sample());
        b.header = [7, 42];
        b.data[1] = 0x5151;
        let bv = SectorBufView::new(&b);
        assert_eq!(bv.header(), &[7, 42]);
        assert!(bv.label().is_in_use());
        assert_eq!(bv.data()[1], 0x5151);
        assert_eq!(b.label_view().next(), DiskAddress(99));
    }

    #[test]
    fn repr_c_parts_are_contiguous() {
        // The #[repr(C)] layout guarantee the views (and any future slab
        // pool) rely on: header, label and value words sit back to back.
        assert_eq!(
            std::mem::size_of::<Sector>(),
            SECTOR_WORDS * std::mem::size_of::<u16>()
        );
        assert_eq!(
            std::mem::size_of::<SectorBuf>(),
            SECTOR_WORDS * std::mem::size_of::<u16>()
        );
    }
}
