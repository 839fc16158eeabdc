//! # ipra-artifact — versioned on-disk build artifacts
//!
//! The paper's toolchain (Figure 1) is file-based: the compiler first
//! phase writes **summary files**, the program analyzer reads them and
//! writes **directives**, the second phase emits **object code**, and the
//! linker produces the executable. This crate defines those files for the
//! reproduction — one format per pipeline stage, each versioned,
//! self-describing, and byte-deterministic:
//!
//! | kind | extension | payload |
//! |------|-----------|---------|
//! | [`ArtifactKind::Summary`]    | `.csum` | [`SummaryArtifact`] — one module's [`ModuleSummary`] |
//! | [`ArtifactKind::Directives`] | `.cdir` | [`DirectivesArtifact`] — the analyzer's [`ProgramDatabase`] |
//! | [`ArtifactKind::Object`]     | `.vo`   | [`ObjectArtifact`] — relocatable VPR code |
//! | [`ArtifactKind::Executable`] | `.vx`   | [`ExecutableArtifact`] — a linked [`Executable`] |
//! | [`ArtifactKind::Library`]    | `.vlib` | [`LibraryArtifact`] — `.vo`+`.csum` member archive |
//!
//! The extensions are naming conventions only: readers take a file's kind
//! from its header ([`sniff`]), never from its name.
//!
//! ## Wire format
//!
//! One ASCII header line, then the payload as canonical JSON, then a
//! newline:
//!
//! ```text
//! ;ipra-artifact <kind> v<version> fnv64:<16-hex-digit body fingerprint>
//! {...}
//! ```
//!
//! The header carries everything needed to reject a file *cleanly* — wrong
//! kind, unsupported version, truncation/corruption (the FNV-64 body
//! fingerprint) — as a typed [`ArtifactError`], never a panic. The body is
//! canonical because every serialized type keeps its maps in [`BTreeMap`]s
//! (or emits struct fields in declaration order), so encoding the same
//! value twice yields identical bytes: artifacts are safe cache keys and
//! byte-comparable across machines and runs.
//!
//! The binary side — cache entries and `cmind` wire messages — shares one
//! length-prefixed, checksummed codec, [`frame`].
//!
//! [`BTreeMap`]: std::collections::BTreeMap

#![warn(missing_docs)]

pub mod frame;

use ipra_core::fingerprint::fingerprint_str;
use ipra_core::ProgramDatabase;
use ipra_summary::ModuleSummary;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use vpr::program::{Executable, ObjectModule};
use vpr::target::TargetId;

/// The one format version this build reads and writes. Bump on any
/// incompatible payload or header change; readers reject other versions
/// with [`ArtifactError::UnsupportedVersion`].
///
/// v2: summary records carry split per-global alias bits
/// (`ptr_mod`/`ptr_ref`/`escapes`) and a per-procedure pointer-flow
/// constraint record in place of the lumped `address_taken` flag.
pub const FORMAT_VERSION: u32 = 2;

/// First token of every artifact header line.
pub const MAGIC: &str = ";ipra-artifact";

/// The five artifact kinds, one per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// `.csum` — a per-module summary file (phase-1 output).
    Summary,
    /// `.cdir` — the program analyzer's directives.
    Directives,
    /// `.vo` — a relocatable object module (phase-2 output).
    Object,
    /// `.vx` — a linked executable.
    Executable,
    /// `.vlib` — an archive of object+summary members.
    Library,
}

impl ArtifactKind {
    /// Every kind, in pipeline order.
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::Summary,
        ArtifactKind::Directives,
        ArtifactKind::Object,
        ArtifactKind::Executable,
        ArtifactKind::Library,
    ];

    /// The header tag (also the display form).
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::Summary => "summary",
            ArtifactKind::Directives => "directives",
            ArtifactKind::Object => "object",
            ArtifactKind::Executable => "executable",
            ArtifactKind::Library => "library",
        }
    }

    /// Parses a header tag.
    pub fn from_tag(tag: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Everything that can go wrong reading an artifact. All variants are
/// clean, typed errors — a malformed or mismatched file never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem error.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        detail: String,
    },
    /// The file does not start with an `;ipra-artifact` header line.
    BadMagic,
    /// The header names a kind this build does not know.
    UnknownKind {
        /// The unrecognized tag.
        tag: String,
    },
    /// The file is a different artifact kind than the reader expected.
    WrongKind {
        /// What the reader asked for.
        expected: ArtifactKind,
        /// What the header declared.
        found: ArtifactKind,
    },
    /// The header declares a format version this build cannot read.
    UnsupportedVersion {
        /// The declared version.
        found: u32,
        /// The one supported version ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The body does not match the header's fingerprint (truncation or
    /// corruption).
    Corrupt {
        /// Fingerprint the header promised.
        expected: String,
        /// Fingerprint of the body actually present.
        found: String,
    },
    /// The body is not valid JSON for the payload type.
    Json {
        /// The parse error.
        detail: String,
    },
    /// The header's `target:` token names a target this build does not
    /// know.
    UnknownTarget {
        /// The unrecognized target name.
        name: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, detail } => write!(f, "{path}: {detail}"),
            ArtifactError::BadMagic => {
                write!(f, "not an artifact (missing `{MAGIC}` header)")
            }
            ArtifactError::UnknownKind { tag } => write!(f, "unknown artifact kind `{tag}`"),
            ArtifactError::WrongKind { expected, found } => {
                write!(f, "expected a {expected} artifact, found {found}")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported artifact version v{found} (this build reads v{supported})")
            }
            ArtifactError::Corrupt { expected, found } => {
                write!(f, "corrupt artifact: header fingerprint {expected}, body is {found}")
            }
            ArtifactError::Json { detail } => write!(f, "malformed artifact body: {detail}"),
            ArtifactError::UnknownTarget { name } => {
                write!(f, "unknown artifact target `{name}`")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

fn fp_hex(body: &str) -> String {
    format!("{:016x}", fingerprint_str(body))
}

/// Encodes a payload into artifact text (header line + canonical JSON).
/// Deterministic: equal payloads encode to identical bytes.
pub fn encode<T: Serialize>(kind: ArtifactKind, payload: &T) -> String {
    encode_for(kind, payload, TargetId::Vpr)
}

/// [`encode`] with a target stamp: a non-VPR target is recorded as a
/// fifth `target:<name>` header token, so `objdump` can name the
/// convention without decoding the body. VPR emits no token — every
/// pre-machine-description artifact byte stays exactly as it was.
pub fn encode_for<T: Serialize>(kind: ArtifactKind, payload: &T, target: TargetId) -> String {
    let body = serde_json::to_string(payload).expect("artifact payloads always serialize");
    let stamp = match target {
        TargetId::Vpr => String::new(),
        t => format!(" target:{}", t.name()),
    };
    format!("{MAGIC} {} v{FORMAT_VERSION} fnv64:{}{stamp}\n{body}\n", kind.tag(), fp_hex(&body))
}

/// Header fields plus the body slice.
struct Parsed<'a> {
    kind: ArtifactKind,
    version: u32,
    target: TargetId,
    fp: &'a str,
    body: &'a str,
}

fn parse(text: &str) -> Result<Parsed<'_>, ArtifactError> {
    let (header, rest) = text.split_once('\n').ok_or(ArtifactError::BadMagic)?;
    let body = rest.strip_suffix('\n').unwrap_or(rest);
    let mut tokens = header.split(' ');
    if tokens.next() != Some(MAGIC) {
        return Err(ArtifactError::BadMagic);
    }
    let tag = tokens.next().ok_or(ArtifactError::BadMagic)?;
    let kind = ArtifactKind::from_tag(tag)
        .ok_or_else(|| ArtifactError::UnknownKind { tag: tag.to_string() })?;
    let version = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse::<u32>().ok())
        .ok_or(ArtifactError::BadMagic)?;
    let fp = tokens.next().and_then(|t| t.strip_prefix("fnv64:")).ok_or(ArtifactError::BadMagic)?;
    // An optional `target:<name>` token; absent means VPR (the format
    // predates second targets, so old files never carry one).
    let target = match tokens.next() {
        None => TargetId::Vpr,
        Some(tok) => {
            let name = tok.strip_prefix("target:").ok_or(ArtifactError::BadMagic)?;
            TargetId::parse(name)
                .ok_or_else(|| ArtifactError::UnknownTarget { name: name.to_string() })?
        }
    };
    if tokens.next().is_some() {
        return Err(ArtifactError::BadMagic);
    }
    Ok(Parsed { kind, version, target, fp, body })
}

/// Reads the header only: the declared kind, version and target. Never
/// inspects the body, so it works on artifacts from other format
/// versions — `objdump`'s first step.
pub fn sniff(text: &str) -> Result<(ArtifactKind, u32, TargetId), ArtifactError> {
    let p = parse(text)?;
    Ok((p.kind, p.version, p.target))
}

/// Decodes artifact text as `kind`, checking magic, kind, version, and
/// body fingerprint before parsing the payload.
pub fn decode<T: Deserialize>(kind: ArtifactKind, text: &str) -> Result<T, ArtifactError> {
    let p = parse(text)?;
    if p.kind != kind {
        return Err(ArtifactError::WrongKind { expected: kind, found: p.kind });
    }
    if p.version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: p.version,
            supported: FORMAT_VERSION,
        });
    }
    let found = fp_hex(p.body);
    if found != p.fp {
        return Err(ArtifactError::Corrupt { expected: p.fp.to_string(), found });
    }
    serde_json::from_str(p.body).map_err(|e| ArtifactError::Json { detail: e.to_string() })
}

/// [`encode`] + write to `path`.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
pub fn write_file<T: Serialize>(
    kind: ArtifactKind,
    path: &Path,
    payload: &T,
) -> Result<(), ArtifactError> {
    write_file_for(kind, path, payload, TargetId::Vpr)
}

/// [`encode_for`] + write to `path`.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
pub fn write_file_for<T: Serialize>(
    kind: ArtifactKind,
    path: &Path,
    payload: &T,
    target: TargetId,
) -> Result<(), ArtifactError> {
    std::fs::write(path, encode_for(kind, payload, target))
        .map_err(|e| ArtifactError::Io { path: path.display().to_string(), detail: e.to_string() })
}

fn read_text(path: &Path) -> Result<String, ArtifactError> {
    std::fs::read_to_string(path)
        .map_err(|e| ArtifactError::Io { path: path.display().to_string(), detail: e.to_string() })
}

/// Reads and [`decode`]s the artifact at `path`.
///
/// # Errors
///
/// Any [`ArtifactError`]: filesystem, header, version, or body problems.
pub fn read_file<T: Deserialize>(kind: ArtifactKind, path: &Path) -> Result<T, ArtifactError> {
    decode(kind, &read_text(path)?)
}

/// [`sniff`]s the artifact at `path`.
///
/// # Errors
///
/// [`ArtifactError::Io`] or a header problem.
pub fn sniff_file(path: &Path) -> Result<(ArtifactKind, u32, TargetId), ArtifactError> {
    sniff(&read_text(path)?)
}

// ---------------------------------------------------------------------------
// Payload types.

/// `.csum` payload: one module's summary, plus the fingerprints of the
/// source and optimized IR it was derived from (provenance for `objdump`
/// and cache debugging; the analyzer reads only `summary`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryArtifact {
    /// The phase-1 summary record.
    pub summary: ModuleSummary,
    /// Fingerprint of (module name, source text, optimize flag).
    pub source_fp: u64,
    /// Fingerprint of the optimized IR.
    pub ir_fp: u64,
}

/// `.cdir` payload: the program analyzer's database, plus the
/// configuration that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectivesArtifact {
    /// Paper configuration name (`L2`, `A` … `F`).
    pub config: String,
    /// Directives for every procedure the analyzer saw.
    pub database: ProgramDatabase,
}

/// `.vo` payload: one relocatable object module with the fingerprints of
/// the IR and the directive slice that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectArtifact {
    /// The relocatable code (symbolic call/global references intact).
    pub object: ObjectModule,
    /// Fingerprint of the optimized IR codegen consumed.
    pub ir_fp: u64,
    /// Fingerprint of the module-relevant database slice codegen consumed.
    pub dir_fp: u64,
}

/// `.vx` payload: a linked executable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutableArtifact {
    /// The linked program.
    pub exe: Executable,
}

/// One `.vlib` member: the object module and the summary it was compiled
/// from, so a library carries everything both the *analyzer* (partial
/// call graph over member summaries) and the *linker* need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryMember {
    /// The member's relocatable code.
    pub object: ObjectModule,
    /// The member's phase-1 summary.
    pub summary: ModuleSummary,
}

/// `.vlib` payload: an ordered archive of members.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LibraryArtifact {
    /// Members, in archive order.
    pub members: Vec<LibraryMember>,
}

impl LibraryArtifact {
    /// Classic archive member selection: starting from `roots`' unresolved
    /// symbols, pull every member that defines a needed symbol, to
    /// fixpoint (members can need each other). Returns selected member
    /// indices in archive order.
    pub fn select(&self, roots: &[ObjectModule]) -> Vec<usize> {
        let mut linked: Vec<ObjectModule> = roots.to_vec();
        let mut selected: Vec<usize> = Vec::new();
        loop {
            let undef = vpr::program_symbols(&linked);
            let mut pulled = false;
            for (i, m) in self.members.iter().enumerate() {
                if selected.contains(&i) {
                    continue;
                }
                let defines_needed = m
                    .object
                    .functions
                    .iter()
                    .any(|f| undef.undefined_funcs.contains(f.name()))
                    || m.object.globals.iter().any(|g| undef.undefined_globals.contains(&g.sym));
                if defines_needed {
                    selected.push(i);
                    linked.push(m.object.clone());
                    pulled = true;
                }
            }
            if !pulled {
                selected.sort_unstable();
                return selected;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_summary::ProcSummary;
    use vpr::inst::Inst;
    use vpr::program::MachineFunction;
    use vpr::regs::Reg;

    fn sample_summary() -> SummaryArtifact {
        SummaryArtifact {
            summary: ModuleSummary {
                module: "m".into(),
                procs: vec![ProcSummary { name: "f".into(), module: "m".into(), ..sample_proc() }],
                globals: vec![],
            },
            source_fp: 0xdead_beef_dead_beef,
            ir_fp: u64::MAX,
        }
    }

    fn sample_proc() -> ProcSummary {
        ProcSummary {
            name: String::new(),
            module: String::new(),
            global_refs: vec![],
            calls: vec![],
            taken_addresses: vec![],
            makes_indirect_calls: false,
            callee_saves_estimate: 2,
            caller_saves_estimate: 1,
            alias: Default::default(),
        }
    }

    #[test]
    fn round_trip_preserves_value_and_bytes() {
        let a = sample_summary();
        let text = encode(ArtifactKind::Summary, &a);
        assert!(text.starts_with(MAGIC));
        let back: SummaryArtifact = decode(ArtifactKind::Summary, &text).unwrap();
        assert_eq!(back, a);
        // Full-range u64 fingerprints survive (the JSON layer must not
        // route them through f64).
        assert_eq!(back.ir_fp, u64::MAX);
        assert_eq!(encode(ArtifactKind::Summary, &back), text);
    }

    #[test]
    fn sniff_reads_kind_and_version_only() {
        let text = encode(ArtifactKind::Summary, &sample_summary());
        assert_eq!(sniff(&text).unwrap(), (ArtifactKind::Summary, FORMAT_VERSION, TargetId::Vpr));
        // Sniff tolerates future versions and corrupt bodies.
        let future = text.replace("v2 ", "v99 ");
        assert_eq!(sniff(&future).unwrap().1, 99);
    }

    #[test]
    fn target_stamp_round_trips_and_vpr_stays_bare() {
        let a = sample_summary();
        // VPR emits no token: byte-identical to the pre-target encoder.
        assert_eq!(
            encode_for(ArtifactKind::Summary, &a, TargetId::Vpr),
            encode(ArtifactKind::Summary, &a)
        );
        let stamped = encode_for(ArtifactKind::Summary, &a, TargetId::Rv32);
        assert!(stamped.lines().next().unwrap().ends_with(" target:rv32"), "{stamped}");
        assert_eq!(sniff(&stamped).unwrap().2, TargetId::Rv32);
        // The stamp is header provenance only; decoding still works.
        let back: SummaryArtifact = decode(ArtifactKind::Summary, &stamped).unwrap();
        assert_eq!(back, a);
        // An unknown target name is a clean, typed error.
        let bad = stamped.replace("target:rv32", "target:pdp11");
        let e = sniff(&bad).unwrap_err();
        assert_eq!(e, ArtifactError::UnknownTarget { name: "pdp11".into() });
    }

    #[test]
    fn header_mismatches_are_clean_errors() {
        let text = encode(ArtifactKind::Summary, &sample_summary());

        let e = decode::<SummaryArtifact>(ArtifactKind::Object, &text).unwrap_err();
        assert_eq!(
            e,
            ArtifactError::WrongKind {
                expected: ArtifactKind::Object,
                found: ArtifactKind::Summary
            }
        );

        let future = text.replace("v2 ", "v3 ");
        let e = decode::<SummaryArtifact>(ArtifactKind::Summary, &future).unwrap_err();
        assert_eq!(e, ArtifactError::UnsupportedVersion { found: 3, supported: 2 });

        let truncated = &text[..text.len() - 10];
        let e = decode::<SummaryArtifact>(ArtifactKind::Summary, truncated).unwrap_err();
        assert!(matches!(e, ArtifactError::Corrupt { .. }), "{e}");

        let e = decode::<SummaryArtifact>(ArtifactKind::Summary, "{}").unwrap_err();
        assert_eq!(e, ArtifactError::BadMagic);

        let unknown = text.replace(" summary ", " hologram ");
        let e = decode::<SummaryArtifact>(ArtifactKind::Summary, &unknown).unwrap_err();
        assert_eq!(e, ArtifactError::UnknownKind { tag: "hologram".into() });

        // Every error renders.
        for e in [
            ArtifactError::BadMagic,
            ArtifactError::Json { detail: "x".into() },
            ArtifactError::Io { path: "p".into(), detail: "d".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn kinds_map_to_tags_and_back() {
        for k in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ArtifactKind::from_tag("nope"), None);
    }

    fn member(name: &str, funcs: &[&str], calls: &[&str]) -> LibraryMember {
        let mut functions = Vec::new();
        for (i, f) in funcs.iter().enumerate() {
            let mut mf = MachineFunction::new(*f);
            if i == 0 {
                for c in calls {
                    mf.push(Inst::Call { target: (*c).into() });
                }
            }
            mf.push(Inst::Bv { base: Reg::RP });
            functions.push(mf);
        }
        LibraryMember {
            object: ObjectModule {
                name: name.into(),
                functions,
                globals: vec![],
                ..Default::default()
            },
            summary: ModuleSummary { module: name.into(), procs: vec![], globals: vec![] },
        }
    }

    #[test]
    fn library_selection_pulls_needed_members_to_fixpoint() {
        let lib = LibraryArtifact {
            members: vec![
                member("unused", &["lonely"], &[]),
                member("api", &["api_entry"], &["core_fn"]),
                member("core", &["core_fn"], &[]),
            ],
        };
        // A root that calls api_entry: selection must pull `api`, then
        // (because api calls core_fn) `core` — never `unused`.
        let mut main = MachineFunction::new("main");
        main.push(Inst::Call { target: "api_entry".into() });
        main.push(Inst::Bv { base: Reg::RP });
        let root = ObjectModule {
            name: "app".into(),
            functions: vec![main],
            globals: vec![],
            ..Default::default()
        };
        assert_eq!(lib.select(&[root]), vec![1, 2]);
        assert_eq!(lib.select(&[]), Vec::<usize>::new());
    }
}
