//! CSV serializers (spec §2.3.4.2).
//!
//! Four variants are supported, matching spec Tables 2.13–2.16:
//!
//! * **CsvBasic** — every entity, relation and multi-valued attribute in
//!   its own file;
//! * **CsvMergeForeign** — 1-to-1 / N-to-1 relations merged into the
//!   entity files as foreign-key columns;
//! * **CsvComposite** — like CsvBasic but multi-valued attributes
//!   (`Person.email`, `Person.speaks`) stored as `;`-separated composite
//!   values inside `person_*.csv`;
//! * **CsvCompositeMergeForeign** — both of the above.
//!
//! Files use `|` as the field separator and `;` for composites, one
//! header line, and are split into `static/` and `dynamic/`
//! subdirectories of the output root — all per spec. Only records
//! created strictly before the bulk/stream cut are serialized; the tail
//! belongs to the update streams (see [`crate::stream`]).
//!
//! [`read_basic`] reads a CsvBasic dataset back into the records it was
//! written from, so this module alone knows the layout: file names,
//! column order, separators and the header line.

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use snb_core::datetime::{Date, DateTime};
use snb_core::model::{
    ForumId, ForumKind, Gender, MessageId, MessageKind, OrganisationId, PersonId, PlaceId, TagId,
};
use snb_core::{SnbError, SnbResult};

use crate::dictionaries::{
    StaticWorld, BROWSERS, FEMALE_NAMES, MALE_NAMES, SURNAMES, TAGS, TAG_CLASSES,
};
use crate::graph::{RawForum, RawGraph, RawKnows, RawLike, RawMembership, RawMessage, RawPerson};

/// The serializer variant to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsvVariant {
    /// Spec Table 2.13 (33 files).
    Basic,
    /// Spec Table 2.14 (20 files).
    MergeForeign,
    /// Spec Table 2.15 (31 files).
    Composite,
    /// Spec Table 2.16 (18 files).
    CompositeMergeForeign,
}

impl CsvVariant {
    fn merge_foreign(self) -> bool {
        matches!(self, CsvVariant::MergeForeign | CsvVariant::CompositeMergeForeign)
    }

    fn composite(self) -> bool {
        matches!(self, CsvVariant::Composite | CsvVariant::CompositeMergeForeign)
    }
}

/// One CSV file being written: its name, then a header line and rows of
/// `|`-separated fields.
struct Csv<W: Write> {
    name: &'static str,
    w: W,
}

impl Csv<BufWriter<File>> {
    fn create(dir: &Path, name: &'static str, header: &str) -> SnbResult<Self> {
        Csv::new(name, BufWriter::new(File::create(dir.join(name))?), header)
    }
}

impl<W: Write> Csv<W> {
    fn new(name: &'static str, mut w: W, header: &str) -> SnbResult<Self> {
        writeln!(w, "{header}")?;
        Ok(Csv { name, w })
    }

    fn row(&mut self, fields: &[&dyn Display]) -> SnbResult<()> {
        for (i, field) in fields.iter().enumerate() {
            write!(self.w, "{}{field}", if i == 0 { "" } else { "|" })?;
        }
        writeln!(self.w)?;
        Ok(())
    }
}

impl Csv<Vec<u8>> {
    fn memory(name: &'static str, header: &str) -> SnbResult<Self> {
        Csv::new(name, Vec::new(), header)
    }

    fn done(self) -> (&'static str, Vec<u8>) {
        (self.name, self.w)
    }
}

/// Serializes the bulk-load dataset (records before `cut`) under
/// `root/social_network/{static,dynamic}`. Returns the list of files
/// written (relative paths), so callers/tests can check the layout
/// against the spec's file tables.
pub fn serialize(
    graph: &RawGraph,
    world: &StaticWorld,
    variant: CsvVariant,
    cut: DateTime,
    root: &Path,
) -> SnbResult<Vec<String>> {
    let base = root.join("social_network");
    let static_dir = base.join("static");
    let dynamic_dir = base.join("dynamic");
    fs::create_dir_all(&static_dir)?;
    fs::create_dir_all(&dynamic_dir)?;
    let mut files = Vec::new();
    for (name, bytes) in static_files(world, variant)? {
        fs::write(static_dir.join(name), bytes)?;
        files.push(format!("static/{name}"));
    }
    write_dynamic(graph, world, variant, cut, &dynamic_dir, &mut files)?;
    Ok(files)
}

/// The static files of `variant` for `world`, each as its name and its
/// bytes, in write order.
fn static_files(
    world: &StaticWorld,
    variant: CsvVariant,
) -> SnbResult<Vec<(&'static str, Vec<u8>)>> {
    let merge = variant.merge_foreign();
    let mut files = Vec::new();
    let url = |name: &str| format!("http://dbpedia.org/resource/{name}");

    // organisation_0_0.csv (+ isLocatedIn): universities, then companies
    {
        let header = if merge { "id|type|name|url|place" } else { "id|type|name|url" };
        let mut f = Csv::memory("organisation_0_0.csv", header)?;
        let mut loc = if merge {
            None
        } else {
            Some(Csv::memory("organisation_isLocatedIn_place_0_0.csv", "Organisation.id|Place.id")?)
        };
        for (id, (kind, name, place)) in world.organisations().enumerate() {
            if let Some(loc) = loc.as_mut() {
                f.row(&[&id, &kind.as_str(), &name, &url(name)])?;
                loc.row(&[&id, &place.0])?;
            } else {
                f.row(&[&id, &kind.as_str(), &name, &url(name), &place.0])?;
            }
        }
        files.push(f.done());
        files.extend(loc.map(Csv::done));
    }

    // place_0_0.csv (+ isPartOf)
    {
        let header = if merge { "id|name|url|type|isPartOf" } else { "id|name|url|type" };
        let mut f = Csv::memory("place_0_0.csv", header)?;
        let mut part = if merge {
            None
        } else {
            Some(Csv::memory("place_isPartOf_place_0_0.csv", "Place.id|Place.id")?)
        };
        for (pid, name) in world.place_names.iter().enumerate() {
            let (kind, parent) = world.place(pid);
            if let Some(part) = part.as_mut() {
                f.row(&[&pid, name, &url(name), &kind.as_str()])?;
                if let Some(parent) = parent {
                    part.row(&[&pid, &parent.0])?;
                }
            } else {
                let parent = parent.map(|p| p.0.to_string()).unwrap_or_default();
                f.row(&[&pid, name, &url(name), &kind.as_str(), &parent])?;
            }
        }
        files.push(f.done());
        files.extend(part.map(Csv::done));
    }

    // tag_0_0.csv (+ hasType)
    {
        let header = if merge { "id|name|url|hasType" } else { "id|name|url" };
        let mut f = Csv::memory("tag_0_0.csv", header)?;
        let mut ht = if merge {
            None
        } else {
            Some(Csv::memory("tag_hasType_tagclass_0_0.csv", "Tag.id|TagClass.id")?)
        };
        for (ti, (name, class)) in TAGS.iter().enumerate() {
            if let Some(ht) = ht.as_mut() {
                f.row(&[&ti, name, &url(name)])?;
                ht.row(&[&ti, class])?;
            } else {
                f.row(&[&ti, name, &url(name), class])?;
            }
        }
        files.push(f.done());
        files.extend(ht.map(Csv::done));
    }

    // tagclass_0_0.csv (+ isSubclassOf); class 0 is the root
    {
        let header = if merge { "id|name|url|isSubclassOf" } else { "id|name|url" };
        let mut f = Csv::memory("tagclass_0_0.csv", header)?;
        let mut sub = if merge {
            None
        } else {
            Some(Csv::memory("tagclass_isSubclassOf_tagclass_0_0.csv", "TagClass.id|TagClass.id")?)
        };
        for (ci, (name, parent)) in TAG_CLASSES.iter().enumerate() {
            let url = format!("http://dbpedia.org/ontology/{name}");
            if let Some(sub) = sub.as_mut() {
                f.row(&[&ci, name, &url])?;
                if ci != 0 {
                    sub.row(&[&ci, parent])?;
                }
            } else {
                let parent = if ci == 0 { String::new() } else { parent.to_string() };
                f.row(&[&ci, name, &url, &parent])?;
            }
        }
        files.push(f.done());
        files.extend(sub.map(Csv::done));
    }
    Ok(files)
}

/// The kind of message `id` (the graph's messages are sorted by id).
fn message_kind(graph: &RawGraph, id: MessageId) -> SnbResult<MessageKind> {
    let i = graph
        .messages
        .binary_search_by_key(&id.0, |m| m.id.0)
        .map_err(|_| SnbError::UnknownId { entity: "Message", id: id.0 })?;
    Ok(graph.messages[i].kind)
}

#[allow(clippy::too_many_lines)]
fn write_dynamic(
    graph: &RawGraph,
    world: &StaticWorld,
    variant: CsvVariant,
    cut: DateTime,
    dir: &Path,
    files: &mut Vec<String>,
) -> SnbResult<()> {
    let merge = variant.merge_foreign();
    let in_bulk = |t: DateTime| t < cut;
    let mut csv = |name: &'static str, header: &str| {
        files.push(format!("dynamic/{name}"));
        Csv::create(dir, name, header)
    };

    // --- person files ---
    {
        let mut header =
            "id|firstName|lastName|gender|birthday|creationDate|locationIP|browserUsed".to_string();
        if merge {
            header.push_str("|place");
        }
        if variant.composite() {
            header.push_str("|language|email");
        }
        let mut f = csv("person_0_0.csv", &header)?;
        let mut located = if merge {
            None
        } else {
            Some(csv("person_isLocatedIn_place_0_0.csv", "Person.id|Place.id")?)
        };
        let (mut speaks, mut email) = if variant.composite() {
            (None, None)
        } else {
            (
                Some(csv("person_speaks_language_0_0.csv", "Person.id|language")?),
                Some(csv("person_email_emailaddress_0_0.csv", "Person.id|email")?),
            )
        };
        let mut interest = csv("person_hasInterest_tag_0_0.csv", "Person.id|Tag.id")?;
        let mut study =
            csv("person_studyAt_organisation_0_0.csv", "Person.id|Organisation.id|classYear")?;
        let mut work =
            csv("person_workAt_organisation_0_0.csv", "Person.id|Organisation.id|workFrom")?;
        for p in graph.persons.iter().filter(|p| in_bulk(p.creation_date)) {
            let (id, gender) = (&p.id.0, p.gender.as_str());
            let langs: Vec<&str> =
                p.languages.iter().map(|&l| world.languages[l as usize]).collect();
            let mut fields: Vec<&dyn Display> = vec![
                id,
                &p.first_name,
                &p.last_name,
                &gender,
                &p.birthday,
                &p.creation_date,
                &p.location_ip,
                &BROWSERS[p.browser as usize].0,
            ];
            if merge {
                fields.push(&p.city.0);
            }
            let composite = variant.composite().then(|| [langs.join(";"), p.emails.join(";")]);
            if let Some(joined) = &composite {
                fields.extend(joined.iter().map(|s| s as &dyn Display));
            }
            f.row(&fields)?;
            if let Some(located) = located.as_mut() {
                located.row(&[id, &p.city.0])?;
            }
            if let Some(speaks) = speaks.as_mut() {
                for l in &langs {
                    speaks.row(&[id, l])?;
                }
            }
            if let Some(email) = email.as_mut() {
                for e in &p.emails {
                    email.row(&[id, e])?;
                }
            }
            for t in &p.interests {
                interest.row(&[id, &t.0])?;
            }
            if let Some((org, year)) = &p.study_at {
                study.row(&[id, &org.0, year])?;
            }
            for (org, from) in &p.work_at {
                work.row(&[id, &org.0, from])?;
            }
        }
    }

    // person_knows_person
    {
        let mut f = csv("person_knows_person_0_0.csv", "Person.id|Person.id|creationDate")?;
        for k in graph.knows.iter().filter(|k| in_bulk(k.creation_date)) {
            f.row(&[&k.a.0, &k.b.0, &k.creation_date])?;
        }
    }

    // --- forum files ---
    {
        let header =
            if merge { "id|title|creationDate|moderator" } else { "id|title|creationDate" };
        let mut f = csv("forum_0_0.csv", header)?;
        let mut moderator = if merge {
            None
        } else {
            Some(csv("forum_hasModerator_person_0_0.csv", "Forum.id|Person.id")?)
        };
        let mut member = csv("forum_hasMember_person_0_0.csv", "Forum.id|Person.id|joinDate")?;
        let mut ftag = csv("forum_hasTag_tag_0_0.csv", "Forum.id|Tag.id")?;
        for fo in graph.forums.iter().filter(|f| in_bulk(f.creation_date)) {
            let id = &fo.id.0;
            if let Some(moderator) = moderator.as_mut() {
                f.row(&[id, &fo.title, &fo.creation_date])?;
                moderator.row(&[id, &fo.moderator.0])?;
            } else {
                f.row(&[id, &fo.title, &fo.creation_date, &fo.moderator.0])?;
            }
            for t in &fo.tags {
                ftag.row(&[id, &t.0])?;
            }
        }
        for m in graph.memberships.iter().filter(|m| in_bulk(m.join_date)) {
            member.row(&[&m.forum.0, &m.person.0, &m.join_date])?;
        }
    }

    // --- post files ---
    {
        let mut header =
            "id|imageFile|creationDate|locationIP|browserUsed|language|content|length".to_string();
        if merge {
            header.push_str("|creator|Forum.id|place");
        }
        let mut f = csv("post_0_0.csv", &header)?;
        let (mut creator, mut container, mut located) = if merge {
            (None, None, None)
        } else {
            (
                Some(csv("post_hasCreator_person_0_0.csv", "Post.id|Person.id")?),
                Some(csv("forum_containerOf_post_0_0.csv", "Forum.id|Post.id")?),
                Some(csv("post_isLocatedIn_place_0_0.csv", "Post.id|Place.id")?),
            )
        };
        let mut ptag = csv("post_hasTag_tag_0_0.csv", "Post.id|Tag.id")?;
        for m in graph
            .messages
            .iter()
            .filter(|m| m.kind == MessageKind::Post && in_bulk(m.creation_date))
        {
            let id = &m.id.0;
            let forum = &m.forum.expect("post has forum").0;
            let image = m.image_file.as_deref().unwrap_or_default();
            let language = m.language.map_or("", |l| world.languages[l as usize]);
            let mut fields: Vec<&dyn Display> = vec![
                id,
                &image,
                &m.creation_date,
                &m.location_ip,
                &BROWSERS[m.browser as usize].0,
                &language,
                &m.content,
                &m.length,
            ];
            if merge {
                fields.extend([&m.creator.0 as &dyn Display, forum, &m.country.0]);
            }
            f.row(&fields)?;
            if let Some(creator) = creator.as_mut() {
                creator.row(&[id, &m.creator.0])?;
            }
            if let Some(container) = container.as_mut() {
                container.row(&[forum, id])?;
            }
            if let Some(located) = located.as_mut() {
                located.row(&[id, &m.country.0])?;
            }
            for t in &m.tags {
                ptag.row(&[id, &t.0])?;
            }
        }
    }

    // --- comment files ---
    {
        let mut header = "id|creationDate|locationIP|browserUsed|content|length".to_string();
        if merge {
            header.push_str("|creator|place|replyOfPost|replyOfComment");
        }
        let mut f = csv("comment_0_0.csv", &header)?;
        let (mut creator, mut located, mut reply_post, mut reply_comment) = if merge {
            (None, None, None, None)
        } else {
            (
                Some(csv("comment_hasCreator_person_0_0.csv", "Comment.id|Person.id")?),
                Some(csv("comment_isLocatedIn_place_0_0.csv", "Comment.id|Place.id")?),
                Some(csv("comment_replyOf_post_0_0.csv", "Comment.id|Post.id")?),
                Some(csv("comment_replyOf_comment_0_0.csv", "Comment.id|Comment.id")?),
            )
        };
        let mut ctag = csv("comment_hasTag_tag_0_0.csv", "Comment.id|Tag.id")?;
        for m in graph
            .messages
            .iter()
            .filter(|m| m.kind == MessageKind::Comment && in_bulk(m.creation_date))
        {
            let id = &m.id.0;
            let parent = &m.reply_of.expect("comment has parent").0;
            let parent_is_post = message_kind(graph, MessageId(*parent))? == MessageKind::Post;
            let mut fields: Vec<&dyn Display> = vec![
                id,
                &m.creation_date,
                &m.location_ip,
                &BROWSERS[m.browser as usize].0,
                &m.content,
                &m.length,
            ];
            if merge {
                let (none, parent): (&dyn Display, &dyn Display) = (&"", parent);
                let (on_post, on_comment) =
                    if parent_is_post { (parent, none) } else { (none, parent) };
                fields.extend([&m.creator.0 as &dyn Display, &m.country.0, on_post, on_comment]);
            }
            f.row(&fields)?;
            if let Some(creator) = creator.as_mut() {
                creator.row(&[id, &m.creator.0])?;
            }
            if let Some(located) = located.as_mut() {
                located.row(&[id, &m.country.0])?;
            }
            let reply = if parent_is_post { reply_post.as_mut() } else { reply_comment.as_mut() };
            if let Some(reply) = reply {
                reply.row(&[id, parent])?;
            }
            for t in &m.tags {
                ctag.row(&[id, &t.0])?;
            }
        }
    }

    // --- likes ---
    {
        let mut post_likes = csv("person_likes_post_0_0.csv", "Person.id|Post.id|creationDate")?;
        let mut comment_likes =
            csv("person_likes_comment_0_0.csv", "Person.id|Comment.id|creationDate")?;
        for l in graph.likes.iter().filter(|l| in_bulk(l.creation_date)) {
            let likes = match message_kind(graph, l.message)? {
                MessageKind::Post => &mut post_likes,
                MessageKind::Comment => &mut comment_likes,
            };
            likes.row(&[&l.person.0, &l.message.0, &l.creation_date])?;
        }
    }
    Ok(())
}

/// A record [`read_basic`] reads from an entity file, addressed by id.
trait Record {
    const NAME: &'static str;
    fn id(&self) -> u64;
}

macro_rules! record {
    ($($raw:ty => $name:literal),*) => {$(
        impl Record for $raw {
            const NAME: &'static str = $name;
            fn id(&self) -> u64 {
                self.id.0
            }
        }
    )*};
}

record!(RawPerson => "Person", RawForum => "Forum", RawMessage => "Message");

/// The placeholder of an N-to-1 reference whose own file has not set it.
const UNSET: u64 = u64::MAX;

/// CsvBasic does not carry `RawKnows::dimension` (generator metadata);
/// every edge [`read_basic`] reads reports the random dimension.
const READ_KNOWS_DIMENSION: u8 = 2;

/// Reads the CsvBasic dataset under `root` back into the bulk records
/// [`serialize`] wrote it from, in generator order: the exact inverse of
/// `serialize(graph, world, CsvVariant::Basic, cut, root)`.
///
/// The static files must be the bytes `serialize` writes for `world`.
/// Fields CsvBasic does not carry are derived (a person's country from
/// its city, a forum's kind from its title, a message's root post from
/// its reply chain), and a `knows` edge's dimension reads as 2. A file
/// `serialize` could not have written is a typed error naming the file,
/// and the line where one row is at fault. `knows`, membership and like
/// rows and a forum's moderator are not checked against the persons and
/// messages.
pub fn read_basic(root: &Path, world: &StaticWorld) -> SnbResult<RawGraph> {
    let base = root.join("social_network");
    check_static(world, &base.join("static"))?;
    let dir = base.join("dynamic");
    let persons = read_persons(&dir, world)?;
    let mut knows = Vec::new();
    read_rows(&dir, "person_knows_person_0_0.csv", |[a, b, created]| {
        knows.push(RawKnows {
            a: PersonId(num(a)?),
            b: PersonId(num(b)?),
            creation_date: date_time(created)?,
            dimension: READ_KNOWS_DIMENSION,
        });
        Ok(())
    })?;
    let (forums, memberships) = read_forums(&dir)?;
    let messages = read_messages(&dir, world, &persons, &forums)?;
    let mut likes = Vec::new();
    for name in ["person_likes_post_0_0.csv", "person_likes_comment_0_0.csv"] {
        read_rows(&dir, name, |[person, message, created]| {
            likes.push(RawLike {
                person: PersonId(num(person)?),
                message: MessageId(num(message)?),
                creation_date: date_time(created)?,
            });
            Ok(())
        })?;
    }
    // Stable: a message's likes are all in one file, in emission order.
    likes.sort_by_key(|l| l.message.0);
    Ok(RawGraph { persons, knows, forums, memberships, messages, likes })
}

/// Checks that every static file under `dir` is what [`serialize`]
/// writes for `world`, naming the first line that differs.
fn check_static(world: &StaticWorld, dir: &Path) -> SnbResult<()> {
    for (name, want) in static_files(world, CsvVariant::Basic)? {
        let path = dir.join(name);
        let got = fs::read(&path).map_err(|e| cannot_open(&path, &e))?;
        if got != want {
            let (got, want) = (got.split(|&b| b == b'\n'), want.split(|&b| b == b'\n'));
            let line = got.zip(want).take_while(|(a, b)| a == b).count() + 1;
            return Err(SnbError::parse(
                format!("{}:{line}", path.display()),
                "differs from the static world the generator's seed builds",
            ));
        }
    }
    Ok(())
}

fn cannot_open(path: &Path, e: &std::io::Error) -> SnbError {
    SnbError::parse(path.display().to_string(), format!("cannot open: {e}"))
}

/// Reads the file `name` under `dir`: a header line, then rows, each of
/// `N` `|`-separated fields, which go to `row`. An error names the file
/// and the line.
fn read_rows<const N: usize>(
    dir: &Path,
    name: &str,
    mut row: impl FnMut([&str; N]) -> Result<(), String>,
) -> SnbResult<()> {
    let path = dir.join(name);
    let at =
        |line: usize, detail: String| SnbError::parse(format!("{}:{line}", path.display()), detail);
    let file = File::open(&path).map_err(|e| cannot_open(&path, &e))?;
    let mut lines = 0;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        lines = i + 1;
        let line = line.map_err(|e| at(lines, e.to_string()))?;
        let fields: Vec<&str> = line.split('|').collect();
        let fields: [&str; N] = fields
            .as_slice()
            .try_into()
            .map_err(|_| at(lines, format!("{} fields, expected {N}", fields.len())))?;
        if i > 0 {
            row(fields).map_err(|detail| at(lines, detail))?;
        }
    }
    if lines == 0 {
        return Err(at(1, "no header line".into()));
    }
    Ok(())
}

/// Reads the file `name` under `dir`, each of whose rows names a record
/// of `rows` by id in field `key`, handing `f` that record and the row.
fn read_for<T: Record, const N: usize>(
    dir: &Path,
    name: &str,
    key: usize,
    rows: &mut [T],
    mut f: impl FnMut(&mut T, [&str; N]) -> Result<(), String>,
) -> SnbResult<()> {
    read_rows(dir, name, |row| {
        let i = find(rows, row[key])?;
        f(&mut rows[i], row)
    })
}

/// An error naming the file `name` under `dir` if a record in `rows`
/// has no row there (its `field` kept the placeholder).
fn check_set<T: Record>(
    dir: &Path,
    name: &str,
    rows: &[T],
    field: impl Fn(&T) -> u64,
) -> SnbResult<()> {
    match rows.iter().find(|r| field(r) == UNSET) {
        Some(r) => Err(SnbError::parse(
            dir.join(name).display().to_string(),
            format!("{} {} has no row", T::NAME, r.id()),
        )),
        None => Ok(()),
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn date_time(s: &str) -> Result<DateTime, String> {
    DateTime::parse(s).ok_or_else(|| format!("`{s}` is not a date-time"))
}

/// The id in `s`, which must follow the last record's id: entity files
/// list their records by increasing id.
fn next_id<T: Record>(rows: &[T], s: &str) -> Result<u64, String> {
    let id = num(s)?;
    match rows.last() {
        Some(r) if r.id() >= id => Err(format!("{} {id} does not follow {}", T::NAME, r.id())),
        _ => Ok(id),
    }
}

/// The position in `rows` (sorted by id) of the record whose id is `s`.
fn find<T: Record>(rows: &[T], s: &str) -> Result<usize, String> {
    let id = num(s)?;
    rows.binary_search_by_key(&id, T::id).map_err(|_| format!("no {} {id}", T::NAME))
}

/// Sets an N-to-1 reference, which its file holds once per record.
fn set_once(slot: &mut u64, value: u64) -> Result<(), String> {
    if *slot != UNSET {
        return Err(format!("a second row for the record (first: {})", *slot));
    }
    *slot = value;
    Ok(())
}

/// The position of `s` in a dictionary of `names`, as a record's `u8`
/// index.
fn index_of<'a>(
    mut names: impl Iterator<Item = &'a str>,
    s: &str,
    what: &str,
) -> Result<u8, String> {
    names
        .position(|n| n == s)
        .and_then(|i| u8::try_from(i).ok())
        .ok_or_else(|| format!("unknown {what} `{s}`"))
}

fn browser(s: &str) -> Result<u8, String> {
    index_of(BROWSERS.iter().map(|b| b.0), s, "browser")
}

fn language(world: &StaticWorld, s: &str) -> Result<u8, String> {
    index_of(world.languages.iter().copied(), s, "language")
}

/// The name `s`, refused unless the generator's pool `names` holds it.
fn name_in(
    names: impl IntoIterator<Item = &'static &'static str>,
    s: &str,
    what: &str,
) -> Result<Box<str>, String> {
    match names.into_iter().any(|&n| n == s) {
        true => Ok(s.into()),
        false => Err(format!("unknown {what} `{s}`")),
    }
}

/// A forum's kind from its title: the generator titles walls, albums
/// and groups apart (spec §2.3.3).
fn forum_kind(title: &str) -> Result<ForumKind, String> {
    [("Wall of ", ForumKind::Wall), ("Album ", ForumKind::Album), ("Group for ", ForumKind::Group)]
        .into_iter()
        .find(|(prefix, _)| title.starts_with(prefix))
        .map(|(_, kind)| kind)
        .ok_or_else(|| format!("title `{title}` names no forum kind"))
}

fn read_persons(dir: &Path, world: &StaticWorld) -> SnbResult<Vec<RawPerson>> {
    let mut persons: Vec<RawPerson> = Vec::new();
    read_rows(dir, "person_0_0.csv", |[id, first, last, gender, birthday, created, ip, used]| {
        persons.push(RawPerson {
            id: PersonId(next_id(&persons, id)?),
            first_name: name_in(MALE_NAMES.iter().chain(FEMALE_NAMES), first, "first name")?,
            last_name: name_in(SURNAMES, last, "surname")?,
            gender: [Gender::Male, Gender::Female]
                .into_iter()
                .find(|g| g.as_str() == gender)
                .ok_or_else(|| format!("unknown gender `{gender}`"))?,
            birthday: Date::parse(birthday).ok_or_else(|| format!("`{birthday}` is not a date"))?,
            creation_date: date_time(created)?,
            location_ip: ip.to_string(),
            browser: browser(used)?,
            city: PlaceId(UNSET),
            country: 0,
            languages: Vec::new(),
            emails: Vec::new(),
            interests: Vec::new(),
            study_at: None,
            work_at: Vec::new(),
        });
        Ok(())
    })?;
    read_for(dir, "person_isLocatedIn_place_0_0.csv", 0, &mut persons, |p, [_, place]| {
        let city = num(place)?;
        let country = world.country_of_city(PlaceId(city));
        p.country = country.ok_or_else(|| format!("Place {city} is no city"))?;
        set_once(&mut p.city.0, city)
    })?;
    check_set(dir, "person_isLocatedIn_place_0_0.csv", &persons, |p| p.city.0)?;
    read_for(dir, "person_speaks_language_0_0.csv", 0, &mut persons, |p, [_, code]| {
        p.languages.push(language(world, code)?);
        Ok(())
    })?;
    read_for(dir, "person_email_emailaddress_0_0.csv", 0, &mut persons, |p, [_, email]| {
        p.emails.push(email.to_string());
        Ok(())
    })?;
    read_for(dir, "person_hasInterest_tag_0_0.csv", 0, &mut persons, |p, [_, tag]| {
        p.interests.push(TagId(num(tag)?));
        Ok(())
    })?;
    read_for(dir, "person_studyAt_organisation_0_0.csv", 0, &mut persons, |p, [_, org, year]| {
        if p.study_at.is_some() {
            return Err("a second university for the person".into());
        }
        p.study_at = Some((OrganisationId(num(org)?), num(year)?));
        Ok(())
    })?;
    read_for(dir, "person_workAt_organisation_0_0.csv", 0, &mut persons, |p, [_, org, from]| {
        p.work_at.push((OrganisationId(num(org)?), num(from)?));
        Ok(())
    })?;
    Ok(persons)
}

fn read_forums(dir: &Path) -> SnbResult<(Vec<RawForum>, Vec<RawMembership>)> {
    let mut forums: Vec<RawForum> = Vec::new();
    read_rows(dir, "forum_0_0.csv", |[id, title, created]| {
        forums.push(RawForum {
            id: ForumId(next_id(&forums, id)?),
            kind: forum_kind(title)?,
            title: title.to_string(),
            creation_date: date_time(created)?,
            moderator: PersonId(UNSET),
            tags: Vec::new(),
        });
        Ok(())
    })?;
    read_for(dir, "forum_hasModerator_person_0_0.csv", 0, &mut forums, |f, [_, person]| {
        set_once(&mut f.moderator.0, num(person)?)
    })?;
    check_set(dir, "forum_hasModerator_person_0_0.csv", &forums, |f| f.moderator.0)?;
    read_for(dir, "forum_hasTag_tag_0_0.csv", 0, &mut forums, |f, [_, tag]| {
        f.tags.push(TagId(num(tag)?));
        Ok(())
    })?;
    let mut memberships = Vec::new();
    read_rows(dir, "forum_hasMember_person_0_0.csv", |[forum, person, joined]| {
        memberships.push(RawMembership {
            forum: ForumId(num(forum)?),
            person: PersonId(num(person)?),
            join_date: date_time(joined)?,
        });
        Ok(())
    })?;
    Ok((forums, memberships))
}

/// A post or comment row's shared fields; its references wait for their
/// own files.
fn message(
    id: u64,
    kind: MessageKind,
    [created, ip, used, content, length]: [&str; 5],
) -> Result<RawMessage, String> {
    Ok(RawMessage {
        id: MessageId(id),
        kind,
        creation_date: date_time(created)?,
        creator: PersonId(UNSET),
        country: PlaceId(UNSET),
        location_ip: ip.to_string(),
        browser: browser(used)?,
        content: content.to_string(),
        length: num(length)?,
        image_file: None,
        language: None,
        forum: None,
        reply_of: None,
        root_post: MessageId(id),
        tags: Vec::new(),
    })
}

/// Reads posts and comments, merged by id, each with its creator (a
/// person in `persons`), country, tags and container: a post's forum
/// (in `forums`), a comment's parent (an earlier post or comment).
fn read_messages(
    dir: &Path,
    world: &StaticWorld,
    persons: &[RawPerson],
    forums: &[RawForum],
) -> SnbResult<Vec<RawMessage>> {
    let mut posts: Vec<RawMessage> = Vec::new();
    read_rows(dir, "post_0_0.csv", |[id, image, created, ip, used, code, content, length]| {
        let id = next_id(&posts, id)?;
        let mut post = message(id, MessageKind::Post, [created, ip, used, content, length])?;
        post.image_file = (!image.is_empty()).then(|| image.to_string());
        post.language = if code.is_empty() { None } else { Some(language(world, code)?) };
        posts.push(post);
        Ok(())
    })?;
    let mut comments: Vec<RawMessage> = Vec::new();
    read_rows(dir, "comment_0_0.csv", |[id, created, ip, used, content, length]| {
        let id = next_id(&comments, id)?;
        comments.push(message(id, MessageKind::Comment, [created, ip, used, content, length])?);
        Ok(())
    })?;

    for (rows, creator, place, tag) in [
        (
            &mut posts,
            "post_hasCreator_person_0_0.csv",
            "post_isLocatedIn_place_0_0.csv",
            "post_hasTag_tag_0_0.csv",
        ),
        (
            &mut comments,
            "comment_hasCreator_person_0_0.csv",
            "comment_isLocatedIn_place_0_0.csv",
            "comment_hasTag_tag_0_0.csv",
        ),
    ] {
        read_for(dir, creator, 0, rows, |m, [_, person]| {
            set_once(&mut m.creator.0, persons[find(persons, person)?].id.0)
        })?;
        check_set(dir, creator, rows, |m| m.creator.0)?;
        read_for(dir, place, 0, rows, |m, [_, country]| set_once(&mut m.country.0, num(country)?))?;
        check_set(dir, place, rows, |m| m.country.0)?;
        read_for(dir, tag, 0, rows, |m, [_, tag]| {
            m.tags.push(TagId(num(tag)?));
            Ok(())
        })?;
    }
    let container = "forum_containerOf_post_0_0.csv";
    read_for(dir, container, 1, &mut posts, |post, [forum, _]| {
        let forum = forums[find(forums, forum)?].id;
        set_once(&mut post.forum.get_or_insert(ForumId(UNSET)).0, forum.0)
    })?;
    check_set(dir, container, &posts, |m| m.forum.map_or(UNSET, |f| f.0))?;
    let mut replies = Vec::new();
    for (name, parents) in
        [("comment_replyOf_post_0_0.csv", &posts), ("comment_replyOf_comment_0_0.csv", &comments)]
    {
        read_rows(dir, name, |[comment, parent]| {
            let (i, parent) = (find(&comments, comment)?, find(parents, parent)?);
            let (id, parent) = (comments[i].id.0, parents[parent].id.0);
            if parent >= id {
                return Err(format!("Comment {id} replies to a later Message {parent}"));
            }
            replies.push((name, i, parent));
            Ok(())
        })?;
    }
    for (name, i, parent) in replies {
        set_once(&mut comments[i].reply_of.get_or_insert(MessageId(UNSET)).0, parent)
            .map_err(|e| SnbError::parse(dir.join(name).display().to_string(), e))?;
    }
    check_set(dir, "comment_replyOf_comment_0_0.csv", &comments, |m| {
        m.reply_of.map_or(UNSET, |p| p.0)
    })?;

    let mut messages = posts;
    messages.append(&mut comments);
    messages.sort_by_key(|m| m.id.0);
    if let Some(w) = messages.windows(2).find(|w| w[0].id == w[1].id) {
        return Err(SnbError::parse(
            dir.join("comment_0_0.csv").display().to_string(),
            format!("Message {} is both a post and a comment", w[0].id.0),
        ));
    }
    for i in 0..messages.len() {
        if let Some(parent) = messages[i].reply_of {
            // The parent is an earlier message (checked above).
            let j = messages[..i].partition_point(|m| m.id < parent);
            messages[i].root_post = messages[j].root_post;
        }
    }
    Ok(messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratorConfig;
    use snb_core::scale::ScaleFactor;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("snb_ser_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn small() -> (GeneratorConfig, RawGraph, StaticWorld) {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 50;
        let w = StaticWorld::build(c.seed);
        let g = crate::generate(&c);
        (c, g, w)
    }

    #[test]
    fn basic_variant_writes_spec_files() {
        let (c, g, w) = small();
        let dir = tmpdir("basic");
        let files = serialize(&g, &w, CsvVariant::Basic, c.stream_cut(), &dir).unwrap();
        // Spec Table 2.13 lists 33 files.
        assert_eq!(files.len(), 33, "files: {files:?}");
        for f in &files {
            let p = dir.join("social_network").join(f);
            assert!(p.exists(), "missing {f}");
            let content = fs::read_to_string(&p).unwrap();
            assert!(content.lines().count() >= 1, "empty file {f}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_basic_then_serialize_rewrites_every_file() {
        let (c, g, w) = small();
        let (first, second) = (tmpdir("read_a"), tmpdir("read_b"));
        let files = serialize(&g, &w, CsvVariant::Basic, c.stream_cut(), &first).unwrap();
        let read = read_basic(&first, &w).unwrap();
        let rewritten = serialize(&read, &w, CsvVariant::Basic, c.stream_cut(), &second).unwrap();
        assert_eq!(rewritten, files);
        for f in &files {
            let bytes = |root: &Path| fs::read(root.join("social_network").join(f)).unwrap();
            assert!(bytes(&first) == bytes(&second), "{f} differs after read_basic");
        }
        let _ = fs::remove_dir_all(&first);
        let _ = fs::remove_dir_all(&second);
    }

    #[test]
    fn merge_foreign_variant_writes_20_files() {
        let (c, g, w) = small();
        let dir = tmpdir("mf");
        let files = serialize(&g, &w, CsvVariant::MergeForeign, c.stream_cut(), &dir).unwrap();
        assert_eq!(files.len(), 20, "files: {files:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn composite_variants_file_counts() {
        let (c, g, w) = small();
        let dir = tmpdir("comp");
        let files = serialize(&g, &w, CsvVariant::Composite, c.stream_cut(), &dir).unwrap();
        assert_eq!(files.len(), 31, "files: {files:?}");
        let files =
            serialize(&g, &w, CsvVariant::CompositeMergeForeign, c.stream_cut(), &dir).unwrap();
        assert_eq!(files.len(), 18, "files: {files:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_cut_excludes_tail_records() {
        let (c, g, w) = small();
        let cut = c.stream_cut();
        let dir = tmpdir("cut");
        serialize(&g, &w, CsvVariant::Basic, cut, &dir).unwrap();
        let person_csv =
            fs::read_to_string(dir.join("social_network/dynamic/person_0_0.csv")).unwrap();
        let rows = person_csv.lines().count() - 1;
        let expected = g.persons.iter().filter(|p| p.creation_date < cut).count();
        assert_eq!(rows, expected);
        assert!(rows <= g.persons.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn person_rows_have_expected_field_count() {
        let (c, g, w) = small();
        let dir = tmpdir("fields");
        serialize(&g, &w, CsvVariant::Composite, c.stream_cut(), &dir).unwrap();
        let csv = fs::read_to_string(dir.join("social_network/dynamic/person_0_0.csv")).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let n = header.split('|').count();
        assert_eq!(n, 10); // 8 scalar + language + email composites
        for line in lines {
            assert_eq!(line.split('|').count(), n, "row: {line}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
