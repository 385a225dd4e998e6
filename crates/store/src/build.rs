//! Bulk-loading a [`Store`] from the generator's in-memory output.

use snb_core::datetime::DateTime;
use snb_core::model::{MessageKind, OrganisationKind, PlaceKind};

use snb_datagen::dictionaries::{StaticWorld, BROWSERS, COUNTRIES, TAGS, TAG_CLASSES};
use snb_datagen::graph::RawGraph;
use snb_datagen::GeneratorConfig;

use crate::adj::Adj;
use crate::columns::{Ix, NONE};
use crate::store::Store;

/// Builds a store from a generated graph, optionally excluding records
/// at/after `cut` (pass `None` to load everything, or
/// `Some(config.stream_cut())` to load only the bulk dataset and replay
/// the tail through the insert API).
pub fn build_store(graph: &RawGraph, world: &StaticWorld, cut: Option<DateTime>) -> Store {
    let mut s = Store::default();
    let keep = |t: DateTime| cut.is_none_or(|c| t < c);

    load_static(&mut s, world);

    // --- persons ---
    for p in graph.persons.iter().filter(|p| keep(p.creation_date)) {
        let ix = s.persons.len() as Ix;
        s.person_ix.insert(p.id.0, ix);
        s.persons.id.push(p.id.0);
        s.persons.first_name.push(p.first_name);
        s.persons.last_name.push(p.last_name);
        s.persons.gender.push(p.gender);
        s.persons.birthday.push(p.birthday);
        s.persons.creation_date.push(p.creation_date);
        s.persons.location_ip.push(&p.location_ip);
        s.persons.browser.push(BROWSERS[p.browser as usize].0);
        s.persons.city.push(s.place_ix[&p.city.0]);
        s.persons.emails.push_row(&p.emails);
        s.persons.speaks.push_row(p.languages.iter().map(|&l| world.languages[l as usize]));
    }
    let np = s.persons.len();

    // Person edge lists.
    let mut interest_edges = Vec::new();
    let mut study_edges = Vec::new();
    let mut work_edges = Vec::new();
    let mut city_edges = Vec::new();
    for p in graph.persons.iter().filter(|p| keep(p.creation_date)) {
        let ix = s.person_ix[&p.id.0];
        for t in &p.interests {
            interest_edges.push((ix, s.tag_ix[&t.0], ()));
        }
        if let Some((org, year)) = p.study_at {
            study_edges.push((ix, s.org_ix[&org.0], year));
        }
        for &(org, from) in &p.work_at {
            work_edges.push((ix, s.org_ix[&org.0], from));
        }
        city_edges.push((s.persons.city[ix as usize], ix, ()));
    }
    let nt = s.tags.len();
    let (pi, ip) = crate::adj::forward_reverse(np, nt, &interest_edges);
    *s.person_interest = pi;
    *s.interest_person = ip;
    *s.person_study = Adj::from_edges(np, &study_edges);
    *s.person_work = Adj::from_edges(np, &work_edges);
    *s.city_person = Adj::from_edges(s.places.len(), &city_edges);

    // knows (symmetric; store both directions).
    let mut knows_edges = Vec::new();
    for k in graph.knows.iter().filter(|k| keep(k.creation_date)) {
        let (Some(&a), Some(&b)) = (s.person_ix.get(&k.a.0), s.person_ix.get(&k.b.0)) else {
            continue;
        };
        knows_edges.push((a, b, k.creation_date));
        knows_edges.push((b, a, k.creation_date));
    }
    *s.knows = Adj::from_edges(np, &knows_edges);

    // --- forums ---
    let mut forum_tag_edges = Vec::new();
    let mut moderates = Vec::new();
    for f in graph.forums.iter().filter(|f| keep(f.creation_date)) {
        let Some(&moderator) = s.person_ix.get(&f.moderator.0) else { continue };
        let ix = s.forums.len() as Ix;
        s.forum_ix.insert(f.id.0, ix);
        s.forums.id.push(f.id.0);
        s.forums.title.push(&f.title);
        s.forums.creation_date.push(f.creation_date);
        s.forums.moderator.push(moderator);
        for t in &f.tags {
            forum_tag_edges.push((ix, s.tag_ix[&t.0], ()));
        }
        moderates.push((moderator, ix, ()));
    }
    let nf = s.forums.len();
    let (ft, tf) = crate::adj::forward_reverse(nf, nt, &forum_tag_edges);
    *s.forum_tag = ft;
    *s.tag_forum = tf;
    *s.person_moderates = Adj::from_edges(np, &moderates);

    // memberships
    let mut member_edges = Vec::new();
    for m in graph.memberships.iter().filter(|m| keep(m.join_date)) {
        let (Some(&f), Some(&p)) = (s.forum_ix.get(&m.forum.0), s.person_ix.get(&m.person.0))
        else {
            continue;
        };
        member_edges.push((f, p, m.join_date));
    }
    let fm = Adj::from_edges(nf, &member_edges);
    let rev: Vec<(u32, u32, DateTime)> = member_edges.iter().map(|&(f, p, d)| (p, f, d)).collect();
    *s.forum_member = fm;
    *s.member_forum = Adj::from_edges(np, &rev);

    // --- messages ---
    // First pass: allocate indices for kept messages.
    for m in graph.messages.iter().filter(|m| keep(m.creation_date)) {
        let ix = s.messages.len() as Ix;
        s.message_ix.insert(m.id.0, ix);
        s.messages.id.push(m.id.0);
        s.messages.kind.push(m.kind);
        s.messages.creation_date.push(m.creation_date);
        s.messages.creator.push(s.person_ix[&m.creator.0]);
        s.messages.country.push(s.place_ix[&m.country.0]);
        s.messages.browser.push(BROWSERS[m.browser as usize].0);
        s.messages.location_ip.push(&m.location_ip);
        s.messages.content.push(&m.content);
        s.messages.length.push(m.length);
        s.messages.image_file.push(m.image_file.as_deref().unwrap_or_default());
        s.messages
            .language
            .push(m.language.map(|l| world.languages[l as usize]).unwrap_or_default());
        s.messages.forum.push(match m.forum {
            Some(f) => s.forum_ix[&f.0],
            None => NONE,
        });
        s.messages.reply_of.push(NONE); // second pass
        s.messages.root_post.push(NONE);
    }
    // Second pass: intra-message references + edge lists.
    let nm = s.messages.len();
    let mut tag_edges = Vec::new();
    let mut creator_edges = Vec::new();
    let mut forum_post_edges = Vec::new();
    let mut reply_edges = Vec::new();
    for m in graph.messages.iter().filter(|m| keep(m.creation_date)) {
        let ix = s.message_ix[&m.id.0];
        if let Some(parent) = m.reply_of {
            let parent_ix = s.message_ix[&parent.0];
            s.messages.reply_of[ix as usize] = parent_ix;
            reply_edges.push((parent_ix, ix, ()));
        }
        s.messages.root_post[ix as usize] = s.message_ix[&m.root_post.0];
        for t in &m.tags {
            tag_edges.push((ix, s.tag_ix[&t.0], ()));
        }
        creator_edges.push((s.messages.creator[ix as usize], ix, ()));
        if m.kind == MessageKind::Post {
            forum_post_edges.push((s.messages.forum[ix as usize], ix, ()));
        }
    }
    let (mt, tm) = crate::adj::forward_reverse(nm, nt, &tag_edges);
    *s.message_tag = mt;
    *s.tag_message = tm;
    *s.person_messages = Adj::from_edges(np, &creator_edges);
    *s.forum_posts = Adj::from_edges(nf, &forum_post_edges);
    *s.message_replies = Adj::from_edges(nm, &reply_edges);

    // --- likes ---
    let mut like_edges = Vec::new();
    for l in graph.likes.iter().filter(|l| keep(l.creation_date)) {
        let (Some(&p), Some(&m)) = (s.person_ix.get(&l.person.0), s.message_ix.get(&l.message.0))
        else {
            continue;
        };
        like_edges.push((p, m, l.creation_date));
    }
    *s.person_likes = Adj::from_edges(np, &like_edges);
    let rev: Vec<(u32, u32, DateTime)> = like_edges.iter().map(|&(p, m, d)| (m, p, d)).collect();
    *s.message_likes = Adj::from_edges(nm, &rev);

    s.rebuild_date_index();
    s.shrink_columns();
    s
}

/// Loads the static part of the schema (places, tags, tag classes,
/// organisations) from the dictionary world.
pub(crate) fn load_static(s: &mut Store, world: &StaticWorld) {
    // Places: ids are the StaticWorld's dense layout (continents,
    // countries, cities).
    let continents = world.continent_place.len();
    let countries = world.country_place.len();
    for (pid, name) in world.place_names.iter().enumerate() {
        let ix = pid as Ix;
        s.place_ix.insert(pid as u64, ix);
        s.places.id.push(pid as u64);
        s.places.name.push(name);
        let kind = if pid < continents {
            PlaceKind::Continent
        } else if pid < continents + countries {
            PlaceKind::Country
        } else {
            PlaceKind::City
        };
        s.places.kind.push(kind);
        let parent = match kind {
            PlaceKind::Continent => NONE,
            PlaceKind::Country => {
                let ci = pid - continents;
                world.continent_place[COUNTRIES[ci].continent].0 as Ix
            }
            PlaceKind::City => {
                let country = world
                    .country_of_city(snb_core::model::PlaceId(pid as u64))
                    .expect("city has country");
                world.country_place[country].0 as Ix
            }
        };
        s.places.part_of.push(parent);
        s.place_by_name.insert(name.clone(), ix);
    }
    let mut child_edges = Vec::new();
    for (pid, &parent) in s.places.part_of.iter().enumerate() {
        if parent != NONE {
            child_edges.push((parent, pid as Ix, ()));
        }
    }
    *s.place_children = Adj::from_edges(s.places.len(), &child_edges);

    // Tag classes.
    for (ci, &(name, parent)) in TAG_CLASSES.iter().enumerate() {
        let ix = ci as Ix;
        s.tag_class_ix.insert(ci as u64, ix);
        s.tag_classes.id.push(ci as u64);
        s.tag_classes.name.push(name);
        s.tag_classes.parent.push(if ci == 0 { NONE } else { parent as Ix });
        s.tag_class_by_name.insert(name.to_string(), ix);
    }
    let mut class_children = Vec::new();
    for (ci, &parent) in s.tag_classes.parent.iter().enumerate() {
        if parent != NONE {
            class_children.push((parent, ci as Ix, ()));
        }
    }
    *s.tagclass_children = Adj::from_edges(s.tag_classes.len(), &class_children);

    // Tags.
    let mut class_tag_edges = Vec::new();
    for (ti, &(name, class)) in TAGS.iter().enumerate() {
        let ix = ti as Ix;
        s.tag_ix.insert(ti as u64, ix);
        s.tags.id.push(ti as u64);
        s.tags.name.push(name);
        s.tags.class.push(class as Ix);
        s.tag_by_name.insert(name.to_string(), ix);
        class_tag_edges.push((class as Ix, ix, ()));
    }
    *s.tagclass_tags = Adj::from_edges(s.tag_classes.len(), &class_tag_edges);

    // Organisations: universities first, then companies (the raw-id
    // convention shared with the serializer).
    for (ui, u) in world.universities.iter().enumerate() {
        let ix = s.organisations.len() as Ix;
        s.org_ix.insert(ui as u64, ix);
        s.organisations.id.push(ui as u64);
        s.organisations.name.push(&u.name);
        s.organisations.kind.push(OrganisationKind::University);
        s.organisations.place.push(u.city.0 as Ix);
    }
    let base = world.universities.len() as u64;
    for (ci, (name, country)) in world.companies.iter().enumerate() {
        let ix = s.organisations.len() as Ix;
        s.org_ix.insert(base + ci as u64, ix);
        s.organisations.id.push(base + ci as u64);
        s.organisations.name.push(name);
        s.organisations.kind.push(OrganisationKind::Company);
        s.organisations.place.push(world.country_place[*country].0 as Ix);
    }
}

/// Convenience: generate a scale factor and load everything (no
/// bulk/stream split). The workhorse constructor for tests, examples
/// and benchmarks.
pub fn store_for_config(config: &GeneratorConfig) -> Store {
    let world = StaticWorld::build(config.seed);
    let graph = snb_datagen::generate(config);
    build_store(&graph, &world, None)
}

/// Like [`store_for_config`] but split at the stream cut, returning the
/// bulk store together with the update events for replay.
pub fn bulk_store_and_stream(
    config: &GeneratorConfig,
) -> (Store, Vec<snb_datagen::stream::TimedEvent>) {
    let world = StaticWorld::build(config.seed);
    let graph = snb_datagen::generate(config);
    let cut = config.stream_cut();
    let store = build_store(&graph, &world, Some(cut));
    let events = snb_datagen::stream::build_update_streams(&graph, cut);
    (store, events)
}

/// Summary counts used by experiment E1 (scale statistics).
pub struct StoreStats {
    /// Total nodes (all entity types).
    pub nodes: u64,
    /// Total edges (all relation instances).
    pub edges: u64,
    /// Persons.
    pub persons: u64,
    /// Forums.
    pub forums: u64,
    /// Posts.
    pub posts: u64,
    /// Comments.
    pub comments: u64,
    /// `knows` edges (undirected count).
    pub knows: u64,
    /// Likes.
    pub likes: u64,
}

impl Store {
    /// Computes summary statistics.
    pub fn stats(&self) -> StoreStats {
        let posts = self.messages.kind.iter().filter(|k| **k == MessageKind::Post).count() as u64;
        let nodes = (self.persons.len()
            + self.forums.len()
            + self.messages.len()
            + self.places.len()
            + self.tags.len()
            + self.tag_classes.len()
            + self.organisations.len()) as u64;
        let edges = (self.knows.edge_count() / 2
            + self.person_interest.edge_count()
            + self.person_study.edge_count()
            + self.person_work.edge_count()
            + self.persons.len() // person isLocatedIn
            + self.forum_member.edge_count()
            + self.forum_tag.edge_count()
            + self.forums.len() // hasModerator
            + self.message_tag.edge_count()
            + self.messages.len() * 2 // hasCreator + isLocatedIn
            + self.forum_posts.edge_count() // containerOf
            + self.message_replies.edge_count() // replyOf
            + self.person_likes.edge_count()
            + self.places.len() // isPartOf (continents contribute 0 but close enough: count non-NONE)
            + self.tags.len() // hasType
            + self.tag_classes.len().saturating_sub(1) // isSubclassOf
            + self.organisations.len()) as u64; // org isLocatedIn
        StoreStats {
            nodes,
            edges,
            persons: self.persons.len() as u64,
            forums: self.forums.len() as u64,
            posts,
            comments: self.messages.len() as u64 - posts,
            knows: (self.knows.edge_count() / 2) as u64,
            likes: self.person_likes.edge_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::scale::ScaleFactor;

    fn config(n: u64) -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = n;
        c
    }

    #[test]
    fn builds_and_validates() {
        let s = store_for_config(&config(80));
        s.validate_invariants().unwrap();
        assert_eq!(s.persons.len(), 80);
        assert!(s.messages.len() > 100);
        assert!(s.forums.len() >= 80); // at least one wall each
    }

    #[test]
    fn id_maps_round_trip() {
        let s = store_for_config(&config(60));
        for (ix, &id) in s.persons.id.iter().enumerate() {
            assert_eq!(s.person_ix[&id], ix as Ix);
        }
        for (ix, &id) in s.messages.id.iter().enumerate() {
            assert_eq!(s.message_ix[&id], ix as Ix);
        }
    }

    #[test]
    fn reply_edges_mirror_columns() {
        let s = store_for_config(&config(60));
        for m in 0..s.messages.len() as Ix {
            let parent = s.messages.reply_of[m as usize];
            if parent != NONE {
                assert!(s.message_replies.targets_of(parent).any(|r| r == m), "reply edge missing");
            }
        }
        for m in 0..s.messages.len() as Ix {
            for r in s.message_replies.targets_of(m) {
                assert_eq!(s.messages.reply_of[r as usize], m);
            }
        }
    }

    #[test]
    fn place_hierarchy_is_three_levels() {
        let s = store_for_config(&config(40));
        for p in 0..s.places.len() {
            match s.places.kind[p] {
                PlaceKind::Continent => assert_eq!(s.places.part_of[p], NONE),
                PlaceKind::Country => {
                    let parent = s.places.part_of[p] as usize;
                    assert_eq!(s.places.kind[parent], PlaceKind::Continent);
                }
                PlaceKind::City => {
                    let parent = s.places.part_of[p] as usize;
                    assert_eq!(s.places.kind[parent], PlaceKind::Country);
                }
            }
        }
    }

    #[test]
    fn tagclass_subtree_contains_descendants() {
        let s = store_for_config(&config(40));
        let person_class = s.tag_class_named("Person").unwrap();
        let subtree = s.tagclass_subtree(person_class);
        let artist = s.tag_class_named("Artist").unwrap();
        let musical = s.tag_class_named("MusicalArtist").unwrap();
        assert!(subtree.contains(&artist));
        assert!(subtree.contains(&musical));
        let work = s.tag_class_named("Work").unwrap();
        assert!(!subtree.contains(&work));
        // tag_in_class_subtree agrees with subtree membership.
        for t in 0..s.tags.len() as Ix {
            let by_walk = s.tag_in_class_subtree(t, person_class);
            let by_set = subtree.contains(&s.tags.class[t as usize]);
            assert_eq!(by_walk, by_set, "tag {t}");
        }
    }

    #[test]
    fn bulk_split_smaller_than_full() {
        let c = config(120);
        let full = store_for_config(&c);
        let (bulk, events) = bulk_store_and_stream(&c);
        assert!(bulk.messages.len() < full.messages.len());
        assert!(!events.is_empty());
        bulk.validate_invariants().unwrap();
    }

    #[test]
    fn persons_in_country_matches_columns() {
        let s = store_for_config(&config(150));
        let mut via_helper = 0usize;
        for country in
            (0..s.places.len() as Ix).filter(|&p| s.places.kind[p as usize] == PlaceKind::Country)
        {
            for p in s.persons_in_country(country) {
                assert_eq!(s.person_country(p), country);
                via_helper += 1;
            }
        }
        assert_eq!(via_helper, s.persons.len());
    }

    #[test]
    fn date_index_windows_match_scans() {
        let mut s = store_for_config(&config(80));
        assert!(s.date_index_fresh());
        // Probe a handful of cut points, including both extremes.
        let mut cuts = s.messages.creation_date.to_vec();
        cuts.sort_unstable();
        for &t in
            [cuts[0], cuts[cuts.len() / 3], cuts[cuts.len() / 2], *cuts.last().unwrap()].iter()
        {
            let before = s.messages_created_before(t).unwrap();
            let after = s.messages_created_after(t).unwrap();
            let scan_before: Vec<Ix> = (0..s.messages.len() as Ix)
                .filter(|&m| s.messages.creation_date[m as usize] < t)
                .collect();
            let mut sorted = before.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, scan_before);
            let at = (0..s.messages.len()).filter(|&m| s.messages.creation_date[m] == t).count();
            assert_eq!(before.len() + at + after.len(), s.messages.len());
        }
        // Staleness: truncate the index and confirm the accessors bail.
        s.message_by_date.pop();
        assert!(!s.date_index_fresh());
        assert!(s.messages_created_before(cuts[0]).is_none());
        s.rebuild_date_index();
        assert!(s.date_index_fresh());
        // Chunk surface tiles the column blocks exactly.
        let total: usize = s.message_chunks(1000).map(|r| r.len()).sum();
        assert_eq!(total, s.messages.len());
        let total: usize = s.vertex_chunks(7).map(|r| r.len()).sum();
        assert_eq!(total, s.persons.len());
    }

    #[test]
    fn thread_forum_resolves_for_comments() {
        let s = store_for_config(&config(80));
        for m in 0..s.messages.len() as Ix {
            let f = s.thread_forum(m);
            assert_ne!(f, NONE, "thread forum missing for message {m}");
            assert!((f as usize) < s.forums.len());
        }
    }
}
