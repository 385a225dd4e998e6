//! Embedded resource dictionaries.
//!
//! The official Datagen ships DBpedia extracts (names per country, tags,
//! companies, IP zones, …; spec Table 2.11). Those files are not
//! redistributable here, so this module embeds *synthetic* dictionaries
//! with the same structure the generator depends on:
//!
//! * a fixed dictionary `D` per property,
//! * a per-country ranking function `R` (a deterministic permutation of
//!   `D` seeded by the country, so rankings differ across countries but
//!   are stable across runs),
//! * a Zipf-shaped probability function `F` over ranks.
//!
//! This preserves the benchmark-relevant behaviour — skew, country
//! correlation of names/tags, a tag-class hierarchy, a tag–tag
//! correlation structure — without the DBpedia payload. The substitution
//! is documented in `DESIGN.md` §2.

use snb_core::dist::RankedSampler;
use snb_core::model::{OrganisationKind, PlaceId, PlaceKind, TagClassId, TagId};
use snb_core::rng::Rng;

/// A continent entry.
pub struct ContinentSpec {
    /// Continent name.
    pub name: &'static str,
}

/// All continents.
pub const CONTINENTS: &[ContinentSpec] = &[
    ContinentSpec { name: "Asia" },
    ContinentSpec { name: "Europe" },
    ContinentSpec { name: "Africa" },
    ContinentSpec { name: "North_America" },
    ContinentSpec { name: "South_America" },
    ContinentSpec { name: "Oceania" },
];

/// A country entry: population weight drives how many Persons live there
/// (spec resource "Countries"), the IP prefix drives `locationIP` (spec
/// resource "IP Zones"), and the language list drives `Person.speaks`.
pub struct CountrySpec {
    /// Country name (underscored like DBpedia labels).
    pub name: &'static str,
    /// Index into [`CONTINENTS`].
    pub continent: usize,
    /// Relative population weight.
    pub population: f64,
    /// First octet of the country's synthetic IPv4 block.
    pub ip_prefix: u8,
    /// Languages spoken, most common first.
    pub languages: &'static [&'static str],
    /// Cities of the country, largest first.
    pub cities: &'static [&'static str],
}

/// All countries. Population weights approximate real relative sizes so
/// person-per-country skew matches the official generator's shape.
pub const COUNTRIES: &[CountrySpec] = &[
    CountrySpec {
        name: "China",
        continent: 0,
        population: 1370.0,
        ip_prefix: 1,
        languages: &["zh"],
        cities: &["Beijing", "Shanghai", "Guangzhou", "Shenzhen", "Chengdu", "Wuhan"],
    },
    CountrySpec {
        name: "India",
        continent: 0,
        population: 1250.0,
        ip_prefix: 2,
        languages: &["hi", "en"],
        cities: &["Mumbai", "Delhi", "Bangalore", "Chennai", "Kolkata", "Hyderabad"],
    },
    CountrySpec {
        name: "United_States",
        continent: 3,
        population: 320.0,
        ip_prefix: 3,
        languages: &["en"],
        cities: &["New_York", "Los_Angeles", "Chicago", "Houston", "Phoenix", "Seattle"],
    },
    CountrySpec {
        name: "Indonesia",
        continent: 0,
        population: 255.0,
        ip_prefix: 4,
        languages: &["id"],
        cities: &["Jakarta", "Surabaya", "Bandung", "Medan"],
    },
    CountrySpec {
        name: "Brazil",
        continent: 4,
        population: 205.0,
        ip_prefix: 5,
        languages: &["pt"],
        cities: &["Sao_Paulo", "Rio_de_Janeiro", "Brasilia", "Salvador"],
    },
    CountrySpec {
        name: "Pakistan",
        continent: 0,
        population: 190.0,
        ip_prefix: 6,
        languages: &["ur", "en"],
        cities: &["Karachi", "Lahore", "Faisalabad"],
    },
    CountrySpec {
        name: "Nigeria",
        continent: 2,
        population: 180.0,
        ip_prefix: 7,
        languages: &["en"],
        cities: &["Lagos", "Kano", "Ibadan"],
    },
    CountrySpec {
        name: "Bangladesh",
        continent: 0,
        population: 160.0,
        ip_prefix: 8,
        languages: &["bn"],
        cities: &["Dhaka", "Chittagong", "Khulna"],
    },
    CountrySpec {
        name: "Russia",
        continent: 1,
        population: 145.0,
        ip_prefix: 9,
        languages: &["ru"],
        cities: &["Moscow", "Saint_Petersburg", "Novosibirsk", "Yekaterinburg"],
    },
    CountrySpec {
        name: "Japan",
        continent: 0,
        population: 127.0,
        ip_prefix: 10,
        languages: &["ja"],
        cities: &["Tokyo", "Osaka", "Nagoya", "Sapporo"],
    },
    CountrySpec {
        name: "Mexico",
        continent: 3,
        population: 120.0,
        ip_prefix: 11,
        languages: &["es"],
        cities: &["Mexico_City", "Guadalajara", "Monterrey"],
    },
    CountrySpec {
        name: "Philippines",
        continent: 0,
        population: 100.0,
        ip_prefix: 12,
        languages: &["tl", "en"],
        cities: &["Manila", "Davao", "Cebu"],
    },
    CountrySpec {
        name: "Vietnam",
        continent: 0,
        population: 92.0,
        ip_prefix: 13,
        languages: &["vi"],
        cities: &["Ho_Chi_Minh_City", "Hanoi", "Da_Nang"],
    },
    CountrySpec {
        name: "Egypt",
        continent: 2,
        population: 90.0,
        ip_prefix: 14,
        languages: &["ar"],
        cities: &["Cairo", "Alexandria", "Giza"],
    },
    CountrySpec {
        name: "Germany",
        continent: 1,
        population: 81.0,
        ip_prefix: 15,
        languages: &["de", "en"],
        cities: &["Berlin", "Hamburg", "Munich", "Cologne"],
    },
    CountrySpec {
        name: "Turkey",
        continent: 0,
        population: 78.0,
        ip_prefix: 16,
        languages: &["tr"],
        cities: &["Istanbul", "Ankara", "Izmir"],
    },
    CountrySpec {
        name: "France",
        continent: 1,
        population: 66.0,
        ip_prefix: 17,
        languages: &["fr"],
        cities: &["Paris", "Marseille", "Lyon", "Toulouse"],
    },
    CountrySpec {
        name: "United_Kingdom",
        continent: 1,
        population: 65.0,
        ip_prefix: 18,
        languages: &["en"],
        cities: &["London", "Birmingham", "Manchester", "Glasgow"],
    },
    CountrySpec {
        name: "Italy",
        continent: 1,
        population: 60.0,
        ip_prefix: 19,
        languages: &["it"],
        cities: &["Rome", "Milan", "Naples", "Turin"],
    },
    CountrySpec {
        name: "South_Africa",
        continent: 2,
        population: 55.0,
        ip_prefix: 20,
        languages: &["en", "af"],
        cities: &["Johannesburg", "Cape_Town", "Durban"],
    },
    CountrySpec {
        name: "South_Korea",
        continent: 0,
        population: 51.0,
        ip_prefix: 21,
        languages: &["ko"],
        cities: &["Seoul", "Busan", "Incheon"],
    },
    CountrySpec {
        name: "Colombia",
        continent: 4,
        population: 48.0,
        ip_prefix: 22,
        languages: &["es"],
        cities: &["Bogota", "Medellin", "Cali"],
    },
    CountrySpec {
        name: "Spain",
        continent: 1,
        population: 46.0,
        ip_prefix: 23,
        languages: &["es"],
        cities: &["Madrid", "Barcelona", "Valencia"],
    },
    CountrySpec {
        name: "Argentina",
        continent: 4,
        population: 43.0,
        ip_prefix: 24,
        languages: &["es"],
        cities: &["Buenos_Aires", "Cordoba", "Rosario"],
    },
    CountrySpec {
        name: "Kenya",
        continent: 2,
        population: 46.0,
        ip_prefix: 25,
        languages: &["sw", "en"],
        cities: &["Nairobi", "Mombasa"],
    },
    CountrySpec {
        name: "Canada",
        continent: 3,
        population: 36.0,
        ip_prefix: 26,
        languages: &["en", "fr"],
        cities: &["Toronto", "Montreal", "Vancouver"],
    },
    CountrySpec {
        name: "Poland",
        continent: 1,
        population: 38.0,
        ip_prefix: 27,
        languages: &["pl"],
        cities: &["Warsaw", "Krakow", "Wroclaw"],
    },
    CountrySpec {
        name: "Australia",
        continent: 5,
        population: 24.0,
        ip_prefix: 28,
        languages: &["en"],
        cities: &["Sydney", "Melbourne", "Brisbane", "Perth"],
    },
    CountrySpec {
        name: "Netherlands",
        continent: 1,
        population: 17.0,
        ip_prefix: 29,
        languages: &["nl", "en"],
        cities: &["Amsterdam", "Rotterdam", "The_Hague"],
    },
    CountrySpec {
        name: "Hungary",
        continent: 1,
        population: 10.0,
        ip_prefix: 30,
        languages: &["hu", "en"],
        cities: &["Budapest", "Debrecen", "Szeged"],
    },
    CountrySpec {
        name: "Sweden",
        continent: 1,
        population: 10.0,
        ip_prefix: 31,
        languages: &["sv", "en"],
        cities: &["Stockholm", "Gothenburg", "Malmo"],
    },
    CountrySpec {
        name: "New_Zealand",
        continent: 5,
        population: 4.7,
        ip_prefix: 32,
        languages: &["en"],
        cities: &["Auckland", "Wellington", "Christchurch"],
    },
];

/// Male first-name pool (global dictionary `D`; countries permute it).
pub const MALE_NAMES: &[&str] = &[
    "Jan", "Wei", "Arjun", "Carlos", "Dmitri", "Hiro", "Ahmed", "John", "Pierre", "Hans", "Luca",
    "Pavel", "Kenji", "Rahul", "Miguel", "Omar", "David", "Peter", "Ivan", "Chen", "Ali", "Jose",
    "Viktor", "Tomas", "Andre", "Sven", "Lars", "Marco", "Adam", "Samuel", "Mehmet", "Otieno",
    "Kwame", "Santiago", "Mateo", "Akira", "Bao", "Duc", "Emil", "Felix", "Gabor", "Henrik",
    "Igor", "Jakob", "Karl", "Leon", "Milan", "Nikola", "Oscar", "Piotr", "Quang", "Ravi",
    "Stefan", "Tariq", "Umar", "Vlad", "Walter", "Xavier", "Yusuf", "Zoltan",
];

/// Female first-name pool.
pub const FEMALE_NAMES: &[&str] = &[
    "Maria",
    "Mei",
    "Priya",
    "Ana",
    "Olga",
    "Yuki",
    "Fatima",
    "Jane",
    "Claire",
    "Greta",
    "Sofia",
    "Elena",
    "Sakura",
    "Anita",
    "Lucia",
    "Layla",
    "Sarah",
    "Petra",
    "Irina",
    "Lin",
    "Aisha",
    "Carmen",
    "Vera",
    "Eva",
    "Amelie",
    "Astrid",
    "Ingrid",
    "Giulia",
    "Hannah",
    "Ruth",
    "Elif",
    "Wanjiru",
    "Abena",
    "Valentina",
    "Camila",
    "Hana",
    "Linh",
    "Thi",
    "Emma",
    "Frida",
    "Eszter",
    "Helga",
    "Katya",
    "Johanna",
    "Karin",
    "Lea",
    "Milena",
    "Nadia",
    "Oksana",
    "Paula",
    "Quyen",
    "Rani",
    "Stella",
    "Tara",
    "Umay",
    "Viola",
    "Wilma",
    "Xenia",
    "Yasmin",
    "Zsofia",
];

/// Surname pool.
pub const SURNAMES: &[&str] = &[
    "Smith",
    "Wang",
    "Kumar",
    "Garcia",
    "Ivanov",
    "Sato",
    "Hassan",
    "Brown",
    "Martin",
    "Muller",
    "Rossi",
    "Petrov",
    "Tanaka",
    "Sharma",
    "Lopez",
    "Ahmed",
    "Jones",
    "Novak",
    "Kowalski",
    "Li",
    "Khan",
    "Fernandez",
    "Sokolov",
    "Svoboda",
    "Dubois",
    "Larsson",
    "Hansen",
    "Ferrari",
    "Nagy",
    "Cohen",
    "Yilmaz",
    "Mwangi",
    "Mensah",
    "Silva",
    "Santos",
    "Yamamoto",
    "Nguyen",
    "Tran",
    "Weber",
    "Fischer",
    "Kovacs",
    "Andersson",
    "Volkov",
    "Schmidt",
    "Becker",
    "Novotny",
    "Horvat",
    "Popescu",
    "Olsen",
    "Wozniak",
    "Pham",
    "Patel",
    "Stefanov",
    "Demir",
    "Rashid",
    "Orlov",
    "Keller",
    "Moreau",
    "Osman",
    "Szabo",
];

/// Company-name stems; each country gets a slice of companies named
/// `<stem>_<country>` (spec resource "Companies by Country").
pub const COMPANY_STEMS: &[&str] = &[
    "Airlines",
    "Telecom",
    "Motors",
    "Energy",
    "Software",
    "Logistics",
    "Foods",
    "Pharma",
    "Textiles",
    "Mining",
    "Construction",
    "Media",
    "Insurance",
    "Shipping",
];

/// University-name patterns; cities get `University_of_<city>` and
/// `<city>_Institute_of_Technology`.
pub const UNIVERSITY_PATTERNS: usize = 2;

/// Browsers with usage weights (spec resource "Browsers").
pub const BROWSERS: &[(&str, f64)] = &[
    ("Firefox", 0.30),
    ("Chrome", 0.30),
    ("Internet Explorer", 0.20),
    ("Safari", 0.12),
    ("Opera", 0.08),
];

/// Email providers (spec resource "Emails").
pub const EMAIL_PROVIDERS: &[&str] =
    &["gmail.com", "yahoo.com", "hotmail.com", "zoho.com", "gmx.com", "mail.ru"];

/// The tag-class tree (spec resources "Tag Classes" / "Tag Hierarchies").
/// `(name, parent index)`; index 0 is the root `Thing` (its parent points
/// at itself and is not emitted).
pub const TAG_CLASSES: &[(&str, usize)] = &[
    ("Thing", 0),
    ("Agent", 0),
    ("Person", 1),
    ("Artist", 2),
    ("MusicalArtist", 3),
    ("Writer", 3),
    ("Politician", 2),
    ("OfficeHolder", 6),
    ("Monarch", 6),
    ("Athlete", 2),
    ("Scientist", 2),
    ("Organisation", 1),
    ("Band", 11),
    ("Company", 11),
    ("Work", 0),
    ("MusicalWork", 14),
    ("Album", 15),
    ("Single", 15),
    ("WrittenWork", 14),
    ("Book", 18),
    ("Film", 14),
    ("Place", 0),
    ("Country", 21),
    ("Settlement", 21),
    ("Event", 0),
    ("SportsEvent", 24),
    ("MilitaryConflict", 24),
];

/// Tags: `(name, class index into TAG_CLASSES)` (spec "Tags by Country").
pub const TAGS: &[(&str, usize)] = &[
    ("Wolfgang_Amadeus_Mozart", 4),
    ("Ludwig_van_Beethoven", 4),
    ("Johann_Sebastian_Bach", 4),
    ("Elvis_Presley", 4),
    ("David_Bowie", 4),
    ("Bob_Dylan", 4),
    ("Frank_Sinatra", 4),
    ("Aretha_Franklin", 4),
    ("Miles_Davis", 4),
    ("Louis_Armstrong", 4),
    ("Johnny_Cash", 4),
    ("Freddie_Mercury", 4),
    ("Michael_Jackson", 4),
    ("Madonna", 4),
    ("Prince", 4),
    ("William_Shakespeare", 5),
    ("Leo_Tolstoy", 5),
    ("Charles_Dickens", 5),
    ("Jane_Austen", 5),
    ("Mark_Twain", 5),
    ("Franz_Kafka", 5),
    ("Pablo_Neruda", 5),
    ("Rabindranath_Tagore", 5),
    ("Haruki_Murakami", 5),
    ("Gabriel_Garcia_Marquez", 5),
    ("Chinua_Achebe", 5),
    ("Mahatma_Gandhi", 6),
    ("Abraham_Lincoln", 7),
    ("Winston_Churchill", 7),
    ("Nelson_Mandela", 7),
    ("Napoleon_Bonaparte", 8),
    ("Julius_Caesar", 8),
    ("Augustus", 8),
    ("Genghis_Khan", 8),
    ("Cleopatra", 8),
    ("Queen_Victoria", 8),
    ("George_Washington", 7),
    ("Simon_Bolivar", 6),
    ("Kwame_Nkrumah", 6),
    ("Sun_Yat-sen", 6),
    ("Muhammad_Ali", 9),
    ("Pele", 9),
    ("Diego_Maradona", 9),
    ("Usain_Bolt", 9),
    ("Serena_Williams", 9),
    ("Roger_Federer", 9),
    ("Sachin_Tendulkar", 9),
    ("Albert_Einstein", 10),
    ("Isaac_Newton", 10),
    ("Marie_Curie", 10),
    ("Charles_Darwin", 10),
    ("Nikola_Tesla", 10),
    ("Alan_Turing", 10),
    ("Galileo_Galilei", 10),
    ("Ada_Lovelace", 10),
    ("The_Beatles", 12),
    ("The_Rolling_Stones", 12),
    ("Queen_(band)", 12),
    ("Pink_Floyd", 12),
    ("Led_Zeppelin", 12),
    ("ABBA", 12),
    ("U2", 12),
    ("Radiohead", 12),
    ("Nirvana", 12),
    ("IBM", 13),
    ("General_Motors", 13),
    ("Toyota", 13),
    ("Siemens", 13),
    ("Samsung", 13),
    ("Abbey_Road", 16),
    ("The_Dark_Side_of_the_Moon", 16),
    ("Thriller_(album)", 16),
    ("Imagine_(song)", 17),
    ("Hey_Jude", 17),
    ("Bohemian_Rhapsody", 17),
    ("War_and_Peace", 19),
    ("Don_Quixote", 19),
    ("Moby-Dick", 19),
    ("Hamlet", 19),
    ("The_Odyssey", 19),
    ("One_Hundred_Years_of_Solitude", 19),
    ("Pride_and_Prejudice", 19),
    ("Casablanca_(film)", 20),
    ("Citizen_Kane", 20),
    ("Seven_Samurai", 20),
    ("The_Godfather", 20),
    ("Metropolis_(film)", 20),
    ("Roman_Empire", 22),
    ("Ottoman_Empire", 22),
    ("British_Empire", 22),
    ("Han_Dynasty", 22),
    ("Athens", 23),
    ("Alexandria", 23),
    ("Kyoto", 23),
    ("Timbuktu", 23),
    ("Olympic_Games", 25),
    ("FIFA_World_Cup", 25),
    ("Tour_de_France", 25),
    ("Wimbledon", 25),
    ("World_War_I", 26),
    ("World_War_II", 26),
    ("Battle_of_Waterloo", 26),
    ("American_Civil_War", 26),
    ("Hundred_Years_War", 26),
];

/// Filler vocabulary for message text (spec resource "Tag Text").
pub const FILLER_WORDS: &[&str] = &[
    "about",
    "maybe",
    "great",
    "photo",
    "from",
    "with",
    "really",
    "think",
    "good",
    "time",
    "world",
    "today",
    "history",
    "music",
    "love",
    "found",
    "right",
    "interesting",
    "new",
    "amazing",
    "thanks",
    "agree",
    "read",
    "heard",
    "seen",
    "best",
    "ever",
    "wonder",
    "true",
];

/// A resolved static world: places, tag classes, tags, organisations —
/// materialised once per generation run.
pub struct StaticWorld {
    /// Place names; index = dense place index.
    pub place_names: Vec<String>,
    /// Place kinds aligned with `place_names`: continents first, then
    /// countries, then cities.
    pub place_is_city: Vec<bool>,
    /// For each country (index into `COUNTRIES`), its PlaceId.
    pub country_place: Vec<PlaceId>,
    /// For each country, the PlaceIds of its cities.
    pub city_places: Vec<Vec<PlaceId>>,
    /// For each continent, its PlaceId.
    pub continent_place: Vec<PlaceId>,
    /// Map city PlaceId -> country index.
    pub city_country: Vec<(PlaceId, usize)>,
    /// Universities: (OrganisationId raw value offset handled by caller).
    pub universities: Vec<UniversitySpecResolved>,
    /// Companies per country: (name, country index).
    pub companies: Vec<(String, usize)>,
    /// For each country, indices into `universities` located there.
    pub universities_by_country: Vec<Vec<usize>>,
    /// For each country, indices into `companies` located there.
    pub companies_by_country: Vec<Vec<usize>>,
    /// Country sampler by population weight.
    pub country_sampler: snb_core::dist::CumulativeTable,
    /// Per-country ranked name sampler (shared shape).
    pub name_rank_sampler: RankedSampler,
    /// Per-country ranked tag sampler (shared shape).
    pub tag_rank_sampler: RankedSampler,
    /// For each country: permutation of male-name indices (rank order).
    pub male_name_ranks: Vec<Vec<u16>>,
    /// For each country: permutation of female-name indices.
    pub female_name_ranks: Vec<Vec<u16>>,
    /// For each country: permutation of surname indices.
    pub surname_ranks: Vec<Vec<u16>>,
    /// For each country: permutation of tag indices (interest ranking).
    pub tag_ranks: Vec<Vec<u16>>,
    /// For each tag: correlated tags, most correlated first (Tag Matrix).
    pub tag_correlations: Vec<Vec<TagId>>,
    /// Browser sampler.
    pub browser_sampler: snb_core::dist::CumulativeTable,
    /// Distinct language codes in dictionary order.
    pub languages: Vec<&'static str>,
}

/// A university resolved to its city.
pub struct UniversitySpecResolved {
    /// Display name.
    pub name: String,
    /// City the university is located in.
    pub city: PlaceId,
    /// Country index of that city.
    pub country: usize,
}

impl StaticWorld {
    /// Materialises the static world. `seed` controls the per-country
    /// ranking permutations (kept equal to the datagen seed so the whole
    /// dataset is one deterministic function of the seed).
    pub fn build(seed: u64) -> StaticWorld {
        // Place ids: continents [0, C), countries [C, C+N), cities after.
        let mut place_names = Vec::new();
        let mut place_is_city = Vec::new();
        let mut continent_place = Vec::new();
        for c in CONTINENTS {
            continent_place.push(PlaceId(place_names.len() as u64));
            place_names.push(c.name.to_string());
            place_is_city.push(false);
        }
        let mut country_place = Vec::new();
        for c in COUNTRIES {
            country_place.push(PlaceId(place_names.len() as u64));
            place_names.push(c.name.to_string());
            place_is_city.push(false);
        }
        let mut city_places = Vec::new();
        let mut city_country = Vec::new();
        for (ci, c) in COUNTRIES.iter().enumerate() {
            let mut ids = Vec::new();
            for city in c.cities {
                let pid = PlaceId(place_names.len() as u64);
                place_names.push(city.to_string());
                place_is_city.push(true);
                city_country.push((pid, ci));
                ids.push(pid);
            }
            city_places.push(ids);
        }

        // Universities: two per first two cities of every country.
        let mut universities = Vec::new();
        let mut universities_by_country = vec![Vec::new(); COUNTRIES.len()];
        for (ci, c) in COUNTRIES.iter().enumerate() {
            for (cix, city) in c.cities.iter().enumerate().take(2) {
                let city_pid = city_places[ci][cix];
                let u1 = UniversitySpecResolved {
                    name: format!("University_of_{city}"),
                    city: city_pid,
                    country: ci,
                };
                universities_by_country[ci].push(universities.len());
                universities.push(u1);
                let u2 = UniversitySpecResolved {
                    name: format!("{city}_Institute_of_Technology"),
                    city: city_pid,
                    country: ci,
                };
                universities_by_country[ci].push(universities.len());
                universities.push(u2);
            }
        }

        // Companies: a rotating subset of stems per country.
        let mut companies = Vec::new();
        let mut companies_by_country = vec![Vec::new(); COUNTRIES.len()];
        for (ci, c) in COUNTRIES.iter().enumerate() {
            for k in 0..6 {
                let stem = COMPANY_STEMS[(ci + k * 5) % COMPANY_STEMS.len()];
                companies_by_country[ci].push(companies.len());
                companies.push((format!("{}_{stem}", c.name), ci));
            }
        }

        let country_sampler = snb_core::dist::CumulativeTable::new(
            &COUNTRIES.iter().map(|c| c.population).collect::<Vec<_>>(),
        );
        let browser_sampler =
            snb_core::dist::CumulativeTable::new(&BROWSERS.iter().map(|b| b.1).collect::<Vec<_>>());

        // Per-country ranking permutations (the ranking function R).
        let perm = |tag: u64, ci: usize, n: usize| -> Vec<u16> {
            let mut idx: Vec<u16> = (0..n as u16).collect();
            let mut rng = Rng::derive(seed, ci as u64, tag);
            rng.shuffle(&mut idx);
            idx
        };
        let male_name_ranks =
            (0..COUNTRIES.len()).map(|ci| perm(101, ci, MALE_NAMES.len())).collect();
        let female_name_ranks =
            (0..COUNTRIES.len()).map(|ci| perm(102, ci, FEMALE_NAMES.len())).collect();
        let surname_ranks = (0..COUNTRIES.len()).map(|ci| perm(103, ci, SURNAMES.len())).collect();
        let tag_ranks = (0..COUNTRIES.len()).map(|ci| perm(104, ci, TAGS.len())).collect();

        // Tag matrix: tags of the same class are strongly correlated;
        // ring-neighbours in the global dictionary weakly so.
        let mut tag_correlations: Vec<Vec<TagId>> = Vec::with_capacity(TAGS.len());
        for (ti, &(_, class)) in TAGS.iter().enumerate() {
            let mut corr: Vec<TagId> = TAGS
                .iter()
                .enumerate()
                .filter(|&(tj, &(_, cj))| tj != ti && cj == class)
                .map(|(tj, _)| TagId(tj as u64))
                .collect();
            for off in [1usize, 2] {
                let n = TAGS.len();
                for cand in [(ti + off) % n, (ti + n - off) % n] {
                    let cid = TagId(cand as u64);
                    if cand != ti && !corr.contains(&cid) {
                        corr.push(cid);
                    }
                }
            }
            tag_correlations.push(corr);
        }

        let mut languages: Vec<&'static str> = Vec::new();
        for c in COUNTRIES {
            for l in c.languages {
                if !languages.contains(l) {
                    languages.push(l);
                }
            }
        }

        StaticWorld {
            place_names,
            place_is_city,
            country_place,
            city_places,
            continent_place,
            city_country,
            universities,
            companies,
            universities_by_country,
            companies_by_country,
            country_sampler,
            name_rank_sampler: RankedSampler::new(MALE_NAMES.len(), 0.9),
            tag_rank_sampler: RankedSampler::new(TAGS.len(), 0.9),
            male_name_ranks,
            female_name_ranks,
            surname_ranks,
            tag_ranks,
            tag_correlations,
            browser_sampler,
            languages,
        }
    }

    /// Total number of places (continents + countries + cities).
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// The country index of a city place id, if it is a city.
    pub fn country_of_city(&self, city: PlaceId) -> Option<usize> {
        self.city_country.iter().find(|(p, _)| *p == city).map(|&(_, c)| c)
    }

    /// Place `pid`'s kind and the place it is part of (none for a
    /// continent): place ids run continents, then countries, then cities.
    pub fn place(&self, pid: usize) -> (PlaceKind, Option<PlaceId>) {
        let (continents, countries) = (self.continent_place.len(), self.country_place.len());
        if pid < continents {
            (PlaceKind::Continent, None)
        } else if pid < continents + countries {
            let continent = COUNTRIES[pid - continents].continent;
            (PlaceKind::Country, Some(self.continent_place[continent]))
        } else {
            let country = self.country_of_city(PlaceId(pid as u64));
            (PlaceKind::City, country.map(|c| self.country_place[c]))
        }
    }

    /// Every organisation's kind, name and place, in raw-id order:
    /// universities (in their city), then companies (in their country).
    pub fn organisations(&self) -> impl Iterator<Item = (OrganisationKind, &str, PlaceId)> {
        let universities =
            self.universities.iter().map(|u| (OrganisationKind::University, &*u.name, u.city));
        let companies = self.companies.iter().map(|(name, country)| {
            (OrganisationKind::Company, &**name, self.country_place[*country])
        });
        universities.chain(companies)
    }

    /// Samples a tag correlated with the country ranking (the spec's
    /// country-correlated interests).
    pub fn sample_tag_for_country(&self, country: usize, rng: &mut Rng) -> TagId {
        let rank = self.tag_rank_sampler.sample(rng);
        TagId(self.tag_ranks[country][rank] as u64)
    }

    /// The tag-class id a tag belongs to.
    pub fn tag_class_of(&self, tag: TagId) -> TagClassId {
        TagClassId(TAGS[tag.0 as usize].1 as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_class_indices_are_valid_and_acyclic() {
        for &(_, parent) in TAG_CLASSES {
            assert!(parent < TAG_CLASSES.len());
        }
        // Every class must reach the root by following parents.
        for (i, _) in TAG_CLASSES.iter().enumerate() {
            let mut cur = i;
            let mut steps = 0;
            while cur != 0 {
                cur = TAG_CLASSES[cur].1;
                steps += 1;
                assert!(steps < TAG_CLASSES.len(), "cycle at class {i}");
            }
        }
    }

    #[test]
    fn tags_reference_valid_classes() {
        for &(name, class) in TAGS {
            assert!(class < TAG_CLASSES.len(), "tag {name}");
            // Tags should attach to non-root classes for BI 20 to be
            // meaningful.
            assert_ne!(class, 0, "tag {name} attached to Thing");
        }
    }

    #[test]
    fn static_world_shape() {
        let w = StaticWorld::build(42);
        assert_eq!(w.country_place.len(), COUNTRIES.len());
        assert_eq!(w.continent_place.len(), CONTINENTS.len());
        let cities: usize = COUNTRIES.iter().map(|c| c.cities.len()).sum();
        assert_eq!(w.place_count(), CONTINENTS.len() + COUNTRIES.len() + cities);
        assert!(w.universities.len() >= COUNTRIES.len() * 2);
        assert_eq!(w.companies.len(), COUNTRIES.len() * 6);
        // Every city resolves back to its country.
        for (ci, cities) in w.city_places.iter().enumerate() {
            for &c in cities {
                assert_eq!(w.country_of_city(c), Some(ci));
            }
        }
    }

    #[test]
    fn rankings_are_permutations_and_country_specific() {
        let w = StaticWorld::build(7);
        let mut sorted = w.male_name_ranks[0].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..MALE_NAMES.len() as u16).collect::<Vec<_>>());
        // Two different countries should rank names differently.
        assert_ne!(w.male_name_ranks[0], w.male_name_ranks[1]);
        // And the permutation is a pure function of the seed.
        let w2 = StaticWorld::build(7);
        assert_eq!(w.male_name_ranks[0], w2.male_name_ranks[0]);
        let w3 = StaticWorld::build(8);
        assert_ne!(
            (0..COUNTRIES.len()).map(|c| w.male_name_ranks[c].clone()).collect::<Vec<_>>(),
            (0..COUNTRIES.len()).map(|c| w3.male_name_ranks[c].clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tag_correlations_exclude_self_and_stay_in_range() {
        let w = StaticWorld::build(1);
        for (ti, corr) in w.tag_correlations.iter().enumerate() {
            assert!(!corr.is_empty(), "tag {ti} has no correlated tags");
            for t in corr {
                assert_ne!(t.0 as usize, ti);
                assert!((t.0 as usize) < TAGS.len());
            }
        }
    }

    #[test]
    fn country_sampler_skews_to_population() {
        let w = StaticWorld::build(3);
        let mut rng = Rng::new(5);
        let mut counts = vec![0usize; COUNTRIES.len()];
        for _ in 0..50_000 {
            counts[w.country_sampler.sample(&mut rng)] += 1;
        }
        // China (weight 1370) must dominate New Zealand (weight 4.7).
        assert!(counts[0] > counts[COUNTRIES.len() - 1] * 20);
    }
}
