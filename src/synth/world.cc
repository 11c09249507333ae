#include "synth/world.h"

#include <algorithm>

#include "synth/name_pools.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

const std::vector<std::string>& QuoteNouns() {
  static const std::vector<std::string> kNouns = {
      "misconduct", "fraud", "negligence", "plagiarism", "harassment",
  };
  return kNouns;
}

const std::vector<std::string>& MonthNames() {
  static const std::vector<std::string> kMonths = {
      "January", "February", "March",     "April",   "May",      "June",
      "July",    "August",   "September", "October", "November", "December"};
  return kMonths;
}

}  // namespace

World::World(const TypeSystem* types, WorldConfig config)
    : types_(types), config_(config), rng_(config.seed) {
  GenerateEntities();
  GenerateFacts();
}

int World::AddEntity(const std::string& name, std::vector<std::string> aliases,
                     const std::vector<std::string>& type_names, Gender gender,
                     bool emerging) {
  WorldEntity e;
  e.id = static_cast<int>(entities_.size());
  e.name = name;
  e.aliases.push_back(name);
  for (std::string& a : aliases) {
    if (!EqualsIgnoreCase(a, name)) e.aliases.push_back(std::move(a));
  }
  for (const std::string& t : type_names) {
    auto id = types_->Find(t);
    QKB_CHECK(id.has_value()) << "unknown type " << t;
    e.types.push_back(*id);
  }
  e.gender = gender;
  e.emerging = emerging;
  e.popularity = 1.0 / (1.0 + static_cast<double>(rng_.NextZipf(20, 1.1)));
  entities_.push_back(std::move(e));
  return entities_.back().id;
}

void World::GenerateEntities() {
  NamePools pools(config_.seed ^ 0xABCDEF);

  auto emerging_draw = [this]() {
    return rng_.NextBool(config_.emerging_entity_fraction);
  };

  auto add_person = [&](const char* type, int count) {
    for (int i = 0; i < count; ++i) {
      Gender gender;
      std::string name = pools.PersonName(&gender);
      // Alias: the bare surname (ambiguous across persons sharing it).
      auto parts = SplitWhitespace(name);
      std::vector<std::string> aliases = {parts.back()};
      AddEntity(name, std::move(aliases), {type}, gender, emerging_draw());
    }
  };

  add_person("ACTOR", config_.actors);
  add_person("SINGER", config_.musicians);
  add_person("FOOTBALLER", config_.footballers);
  add_person("COACH", config_.coaches);
  add_person("ENTREPRENEUR", config_.business_people);
  add_person("DIRECTOR", config_.directors);
  add_person("PERSON", config_.plain_persons);

  std::vector<std::string> city_names;
  for (int i = 0; i < config_.cities; ++i) {
    std::string city = pools.CityName();
    city_names.push_back(city);
    AddEntity(city, {}, {"CITY"}, Gender::kUnknown, emerging_draw() && i > 2);
  }
  for (int i = 0; i < config_.clubs; ++i) {
    // Club named after a city; the bare city name is an ambiguous alias.
    const std::string& city = city_names[rng_.NextUint64(city_names.size())];
    std::string short_alias;
    std::string club = pools.ClubName(city, &short_alias);
    AddEntity(club, {short_alias}, {"FOOTBALL_CLUB"}, Gender::kUnknown,
              emerging_draw());
  }
  for (int i = 0; i < config_.films; ++i) {
    AddEntity(pools.FilmTitle(), {}, {"FILM"}, Gender::kUnknown, emerging_draw());
  }
  for (int i = 0; i < config_.albums; ++i) {
    AddEntity(pools.AlbumTitle(), {}, {"ALBUM"}, Gender::kUnknown, emerging_draw());
  }
  for (int i = 0; i < config_.awards; ++i) {
    std::string award = pools.AwardName();
    // Drop the leading "the" for the canonical name; keep it in text.
    AddEntity(award.substr(4), {}, {"AWARD"}, Gender::kUnknown, false);
  }
  for (int i = 0; i < config_.universities && i < static_cast<int>(city_names.size());
       ++i) {
    AddEntity(pools.UniversityName(city_names[static_cast<size_t>(i)]), {},
              {"UNIVERSITY"}, Gender::kUnknown, false);
  }
  for (int i = 0; i < config_.charities; ++i) {
    std::string charity = pools.CharityName();
    AddEntity(charity.substr(4), {}, {"FOUNDATION"}, Gender::kUnknown,
              emerging_draw());
  }
  for (int i = 0; i < config_.companies; ++i) {
    AddEntity(pools.CompanyName(), {}, {"COMPANY"}, Gender::kUnknown,
              emerging_draw());
  }
  for (int i = 0; i < config_.festivals; ++i) {
    AddEntity(pools.AlbumTitle() + " Festival", {}, {"FESTIVAL"},
              Gender::kUnknown, false);
  }
  for (int i = 0; i < config_.characters; ++i) {
    Gender gender;
    std::string name = pools.CharacterName(&gender);
    auto parts = SplitWhitespace(name);
    // Characters are aliased by both name parts; the small fantasy name
    // pools collide heavily, as in real fan wikis.
    AddEntity(name, {parts.front(), parts.back()}, {"CHARACTER"}, gender,
              rng_.NextBool(config_.emerging_character_fraction));
  }
}

WorldArg World::MakeLiteralArg(const ArgSlot& slot, bool emerging_fact, Rng* rng) {
  WorldArg arg;
  arg.is_entity = false;
  arg.prep = slot.prep;
  if (slot.type == "TIME") {
    if (emerging_fact) {
      // Post-snapshot: a full recent date.
      int month = rng->NextInt(1, 12);
      int day = rng->NextInt(1, 28);
      int year = rng->NextInt(2015, 2016);
      arg.literal = MonthNames()[static_cast<size_t>(month - 1)] + " " +
                    std::to_string(day) + ", " + std::to_string(year);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
      arg.normalized = buf;
    } else {
      int year = rng->NextInt(1970, 2014);
      arg.literal = std::to_string(year);
      arg.normalized = arg.literal;
    }
  } else if (slot.type == "NUMBER") {
    int amount = rng->NextInt(1, 900) * 1000;
    std::string grouped = std::to_string(amount / 1000) + ",000";
    arg.literal = "$" + grouped;
    arg.normalized = arg.literal;
  } else {  // QUOTE
    arg.literal = QuoteNouns()[rng->NextUint64(QuoteNouns().size())];
    arg.normalized = arg.literal;
  }
  return arg;
}

void World::GenerateFacts() {
  const auto& catalog = RelationCatalog();
  // Pre-bucket entities per slot type for sampling.
  auto sample_entity = [this](TypeId type, int exclude, Rng* rng) -> int {
    std::vector<int> pool;
    for (const WorldEntity& e : entities_) {
      if (e.id == exclude) continue;
      for (TypeId t : e.types) {
        if (types_->IsA(t, type)) {
          pool.push_back(e.id);
          break;
        }
      }
    }
    if (pool.empty()) return -1;
    // Popularity-weighted choice.
    double total = 0.0;
    for (int id : pool) total += entities_[static_cast<size_t>(id)].popularity;
    double u = rng->NextDouble() * total;
    for (int id : pool) {
      u -= entities_[static_cast<size_t>(id)].popularity;
      if (u <= 0) return id;
    }
    return pool.back();
  };

  for (size_t r = 0; r < catalog.size(); ++r) {
    const RelationSpec& spec = catalog[r];
    auto subject_type = types_->Find(spec.subject_type);
    QKB_CHECK(subject_type.has_value());
    for (const WorldEntity& subject : entities_) {
      bool type_ok = false;
      for (TypeId t : subject.types) {
        if (types_->IsA(t, *subject_type)) type_ok = true;
      }
      if (!type_ok) continue;
      if (!rng_.NextBool(spec.frequency)) continue;

      WorldFact fact;
      fact.relation = static_cast<int>(r);
      fact.subject = subject.id;
      fact.emerging =
          subject.emerging || rng_.NextBool(config_.emerging_fact_fraction);
      bool ok = true;
      for (const ArgSlot& slot : spec.args) {
        if (slot.type == "TIME" || slot.type == "NUMBER" || slot.type == "QUOTE") {
          fact.args.push_back(MakeLiteralArg(slot, fact.emerging, &rng_));
          continue;
        }
        auto type = types_->Find(slot.type);
        QKB_CHECK(type.has_value()) << slot.type;
        int target = sample_entity(*type, subject.id, &rng_);
        if (target < 0) {
          ok = false;
          break;
        }
        // A fact touching an emerging entity is necessarily post-snapshot.
        if (entities_[static_cast<size_t>(target)].emerging) fact.emerging = true;
        WorldArg arg;
        arg.is_entity = true;
        arg.entity = target;
        arg.prep = slot.prep;
        fact.args.push_back(std::move(arg));
      }
      if (!ok || fact.args.empty()) continue;
      // Symmetric relations (marriage) hold in both directions and appear
      // on both entities' pages.
      if (spec.symmetric && fact.args[0].is_entity) {
        WorldFact inverse = fact;
        inverse.subject = fact.args[0].entity;
        inverse.args[0].entity = fact.subject;
        facts_by_subject_[inverse.subject].push_back(
            static_cast<int>(facts_.size()) + 1);
        facts_by_subject_[subject.id].push_back(static_cast<int>(facts_.size()));
        facts_.push_back(std::move(fact));
        facts_.push_back(std::move(inverse));
        continue;
      }
      facts_by_subject_[subject.id].push_back(static_cast<int>(facts_.size()));
      facts_.push_back(std::move(fact));
    }
  }
  QKB_LOG(Info) << "world: " << entities_.size() << " entities, " << facts_.size()
                << " facts";
}

const std::vector<int>& World::FactsOfSubject(int entity) const {
  static const std::vector<int> kEmpty;
  auto it = facts_by_subject_.find(entity);
  return it == facts_by_subject_.end() ? kEmpty : it->second;
}

EntityRepository World::BuildSnapshotRepository(
    std::vector<int>* repo_to_world,
    std::unordered_map<int, EntityId>* world_to_repo) const {
  EntityRepository repo(types_);
  repo_to_world->clear();
  world_to_repo->clear();
  for (const WorldEntity& e : entities_) {
    if (e.emerging) continue;
    std::vector<std::string> aliases(e.aliases.begin() + 1, e.aliases.end());
    EntityId id = repo.AddEntity(e.name, aliases, e.types, e.gender);
    repo_to_world->push_back(e.id);
    world_to_repo->emplace(e.id, id);
  }
  return repo;
}

}  // namespace qkbfly
