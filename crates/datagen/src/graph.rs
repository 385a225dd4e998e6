//! The raw in-memory social network produced by the generator.
//!
//! This is a flat, serialisation-oriented representation (vectors of
//! records); `snb-store` turns it into the columnar/CSR form queries run
//! against.

use snb_core::datetime::{Date, DateTime};
use snb_core::model::{
    ForumId, ForumKind, Gender, MessageId, MessageKind, OrganisationId, PersonId, PlaceId, TagId,
};

/// A generated Person (spec Table 2.5 plus its relations).
#[derive(Clone, Debug)]
pub struct RawPerson {
    /// Person id.
    pub id: PersonId,
    /// First name (country- and gender-correlated). A `Box<str>`, not a
    /// `String`: every update event is as large as this record, so a
    /// capacity field here would cost 8 bytes per event in every stream.
    pub first_name: Box<str>,
    /// Surname (country-correlated).
    pub last_name: Box<str>,
    /// Gender.
    pub gender: Gender,
    /// Birthday (day precision).
    pub birthday: Date,
    /// Date the person joined the network.
    pub creation_date: DateTime,
    /// IP address drawn from the home country's block.
    pub location_ip: String,
    /// Browser dictionary index (into [`crate::dictionaries::BROWSERS`]).
    pub browser: u8,
    /// Home city.
    pub city: PlaceId,
    /// Country index of the home city (into `COUNTRIES`; denormalised
    /// for the generator's own correlation passes).
    pub country: usize,
    /// Language indices into `StaticWorld::languages`.
    pub languages: Vec<u8>,
    /// Email addresses.
    pub emails: Vec<String>,
    /// Tags the person is interested in.
    pub interests: Vec<TagId>,
    /// University studied at with graduation class year, if any.
    pub study_at: Option<(OrganisationId, i32)>,
    /// Companies worked at with start year.
    pub work_at: Vec<(OrganisationId, i32)>,
}

/// An undirected `knows` edge with its creation date and the correlation
/// dimension (0 = study, 1 = interest, 2 = random) that produced it —
/// the dimension is generator metadata used by experiment E2, not part
/// of the benchmark schema.
#[derive(Clone, Copy, Debug)]
pub struct RawKnows {
    /// One endpoint (always the smaller person id).
    pub a: PersonId,
    /// Other endpoint.
    pub b: PersonId,
    /// Date the friendship was established.
    pub creation_date: DateTime,
    /// Correlation dimension that generated the edge.
    pub dimension: u8,
}

/// A generated Forum (wall, album or group).
#[derive(Clone, Debug)]
pub struct RawForum {
    /// Forum id.
    pub id: ForumId,
    /// Flavour (wall / album / group), distinguished by title per spec.
    pub kind: ForumKind,
    /// Title.
    pub title: String,
    /// Creation timestamp.
    pub creation_date: DateTime,
    /// Moderator.
    pub moderator: PersonId,
    /// Topics of the forum.
    pub tags: Vec<TagId>,
}

/// A forum membership (`hasMember` with `joinDate`).
#[derive(Clone, Copy, Debug)]
pub struct RawMembership {
    /// The forum.
    pub forum: ForumId,
    /// The member.
    pub person: PersonId,
    /// Join date.
    pub join_date: DateTime,
}

/// A generated Message — Posts and Comments share this record; `kind`
/// discriminates and Comment-only/Post-only fields are optional.
#[derive(Clone, Debug)]
pub struct RawMessage {
    /// Message id (one id space across Posts and Comments so `replyOf`
    /// can address either; the spec permits per-type id reuse but does
    /// not require it).
    pub id: MessageId,
    /// Post or Comment.
    pub kind: MessageKind,
    /// Creation timestamp.
    pub creation_date: DateTime,
    /// Author.
    pub creator: PersonId,
    /// Country the message was issued from.
    pub country: PlaceId,
    /// IP within the author's country block.
    pub location_ip: String,
    /// Browser dictionary index.
    pub browser: u8,
    /// Textual content; empty iff this is an image post.
    pub content: String,
    /// Content length (spec: length of content; for image posts the
    /// length of the image file name is not counted — length is 0).
    pub length: u32,
    /// Image file name (Posts only; mutually exclusive with content).
    pub image_file: Option<String>,
    /// Language (Posts only).
    pub language: Option<u8>,
    /// Containing forum (Posts only).
    pub forum: Option<ForumId>,
    /// Message this Comment replies to (Comments only).
    pub reply_of: Option<MessageId>,
    /// Root Post of the thread (Posts: self).
    pub root_post: MessageId,
    /// Topics.
    pub tags: Vec<TagId>,
}

/// A `likes` edge.
#[derive(Clone, Copy, Debug)]
pub struct RawLike {
    /// The person issuing the like.
    pub person: PersonId,
    /// The liked message.
    pub message: MessageId,
    /// When the like was issued.
    pub creation_date: DateTime,
}

/// The complete generated network (static + dynamic).
#[derive(Default)]
pub struct RawGraph {
    /// Persons.
    pub persons: Vec<RawPerson>,
    /// `knows` edges (each undirected edge stored once, a < b).
    pub knows: Vec<RawKnows>,
    /// Forums.
    pub forums: Vec<RawForum>,
    /// Forum memberships.
    pub memberships: Vec<RawMembership>,
    /// Posts and comments, ordered by id.
    pub messages: Vec<RawMessage>,
    /// Likes.
    pub likes: Vec<RawLike>,
}

impl RawGraph {
    /// Number of Post messages.
    pub fn post_count(&self) -> usize {
        self.messages.iter().filter(|m| m.kind == MessageKind::Post).count()
    }

    /// Number of Comment messages.
    pub fn comment_count(&self) -> usize {
        self.messages.len() - self.post_count()
    }

    /// Total node count including static entities (for experiment E1).
    pub fn node_count(
        &self,
        static_places: usize,
        static_tags: usize,
        static_tag_classes: usize,
        static_orgs: usize,
    ) -> u64 {
        (self.persons.len()
            + self.forums.len()
            + self.messages.len()
            + static_places
            + static_tags
            + static_tag_classes
            + static_orgs) as u64
    }

    /// Total edge count (every relation instance, message tags included).
    pub fn edge_count(&self) -> u64 {
        let person_edges: usize = self
            .persons
            .iter()
            .map(|p| {
                1 // isLocatedIn
                    + p.interests.len()
                    + p.study_at.iter().count()
                    + p.work_at.len()
            })
            .sum();
        let forum_edges: usize =
            self.forums.iter().map(|f| 1 + f.tags.len()).sum::<usize>() + self.memberships.len();
        let message_edges: usize = self
            .messages
            .iter()
            .map(|m| {
                // hasCreator + isLocatedIn + hasTag* + (containerOf | replyOf)
                2 + m.tags.len() + 1
            })
            .sum();
        (self.knows.len() + person_edges + forum_edges + message_edges + self.likes.len()) as u64
    }
}
