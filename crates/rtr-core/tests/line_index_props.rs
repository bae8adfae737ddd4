//! Property tests for [`rtr_core::diag::LineIndex`]: the three position
//! systems (byte offsets, the reader's 1-based character [`Loc`]s, LSP's
//! 0-based UTF-16 [`Utf16Pos`]s) must agree on texts mixing ASCII,
//! multi-byte BMP characters, and astral-plane characters (which occupy
//! one `Loc` column but *two* UTF-16 units), and every conversion must
//! clamp arbitrary out-of-range input instead of panicking.

use proptest::prelude::*;

use rtr_core::diag::{LineIndex, Loc, Span, Utf16Pos};

/// Texts that stress every width class: 1-byte ASCII, 2-byte (é),
/// 3-byte (☃), and 4-byte astral (𝒳, two UTF-16 units), with embedded
/// newlines (including leading/trailing/empty lines).
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just(' '),
            Just('é'),
            Just('λ'),
            Just('☃'),
            Just('𝒳'),
            Just('😀'),
            Just('\n'),
        ],
        0..80,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A valid char-boundary byte offset into `text` (including the end).
fn boundary_offsets(text: &str) -> Vec<u32> {
    let mut offs: Vec<u32> = text.char_indices().map(|(i, _)| i as u32).collect();
    offs.push(text.len() as u32);
    offs
}

proptest! {
    /// byte → Loc → byte is the identity on char boundaries.
    #[test]
    fn byte_loc_round_trips_on_boundaries(text in arb_text()) {
        let ix = LineIndex::new(&text);
        for byte in boundary_offsets(&text) {
            let loc = ix.byte_to_loc(&text, byte);
            // A newline's own offset maps to "just past the previous
            // line's last character", whose loc_to_byte lands back on
            // the newline itself — still the same byte.
            prop_assert_eq!(ix.loc_to_byte(&text, loc), byte);
        }
    }

    /// byte → UTF-16 → byte is the identity on char boundaries (the
    /// ISSUE-pinned round trip: a checker span rendered as an LSP range
    /// resolves back to the same source bytes).
    #[test]
    fn byte_utf16_round_trips_on_boundaries(text in arb_text()) {
        let ix = LineIndex::new(&text);
        for byte in boundary_offsets(&text) {
            let pos = ix.byte_to_utf16(&text, byte);
            prop_assert_eq!(ix.utf16_to_byte(&text, pos), byte);
        }
    }

    /// Span → LSP range → span round-trips for spans between any two
    /// boundary offsets.
    #[test]
    fn spans_survive_the_utf16_detour(text in arb_text(), a in 0usize..100, b in 0usize..100) {
        let offs = boundary_offsets(&text);
        let lo = offs[a % offs.len()];
        let hi = offs[b % offs.len()];
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let span = Span::new(ix_loc(&text, lo), ix_loc(&text, hi));
        let ix = LineIndex::new(&text);
        let (start, end) = ix.span_to_utf16(&text, span);
        prop_assert_eq!(ix.utf16_to_loc(&text, start), span.start);
        prop_assert_eq!(ix.utf16_to_loc(&text, end), span.end);
        // ...and all the way back to bytes.
        prop_assert_eq!(ix.utf16_to_byte(&text, start), lo);
        prop_assert_eq!(ix.utf16_to_byte(&text, end), hi);
    }

    /// Arbitrary (including wildly out-of-range) positions never panic,
    /// and every conversion lands inside the text.
    #[test]
    fn conversions_clamp_instead_of_panicking(
        text in arb_text(),
        byte in 0u32..10_000,
        line in 0u32..10_000,
        character in 0u32..10_000,
    ) {
        let ix = LineIndex::new(&text);
        let loc = ix.byte_to_loc(&text, byte);
        prop_assert!(ix.loc_to_byte(&text, loc) <= text.len() as u32);
        let pos = Utf16Pos { line, character };
        let clamped = ix.utf16_to_byte(&text, pos);
        prop_assert!(clamped <= text.len() as u32);
        prop_assert!(text.is_char_boundary(clamped as usize));
        let wild = Loc { line, col: character };
        prop_assert!(ix.loc_to_byte(&text, wild) <= text.len() as u32);
    }

    /// A UTF-16 `character` landing between the two units of a surrogate
    /// pair resolves into (not past) the containing character.
    #[test]
    fn mid_surrogate_positions_round_down(text in arb_text(), line in 0u32..8, character in 0u32..60) {
        let ix = LineIndex::new(&text);
        let pos = Utf16Pos { line, character };
        let byte = ix.utf16_to_byte(&text, pos);
        let back = ix.byte_to_utf16(&text, byte);
        prop_assert!(back.line <= line || line >= ix.line_count());
        if back.line == pos.line.min(ix.line_count() - 1) {
            prop_assert!(back.character <= character);
        }
    }
}

/// An independently-computed [`Loc`] for a boundary byte offset (counts
/// lines and characters directly, no `LineIndex` involved).
fn ix_loc(text: &str, byte: u32) -> Loc {
    let (mut line, mut col) = (1u32, 1u32);
    for (i, ch) in text.char_indices() {
        if i as u32 >= byte {
            break;
        }
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    Loc { line, col }
}

/// Texts for edits: [`arb_text`]'s alphabet plus `\r`.
fn arb_edit_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('é'), Just('𝒳'), Just('\r'), Just('\n'),],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    /// An index updated across one replaced range equals the index built
    /// from scratch on the edited text.
    #[test]
    fn an_updated_index_equals_a_fresh_one(
        text in arb_text(),
        insert in arb_edit_text(),
        a in 0usize..200,
        b in 0usize..200,
    ) {
        let bounds = boundary_offsets(&text);
        let (x, y) = (bounds[a % bounds.len()], bounds[b % bounds.len()]);
        let (from, to) = (x.min(y) as usize, x.max(y) as usize);
        let edited = format!("{}{insert}{}", &text[..from], &text[to..]);
        let updated = LineIndex::new(&text).updated(&text, &edited);
        prop_assert_eq!(&updated, &LineIndex::new(&edited));
        // And back again.
        prop_assert_eq!(updated.updated(&edited, &text), LineIndex::new(&text));
    }
}
