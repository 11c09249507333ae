// The synthetic world model: typed entities with ambiguous aliases, gold
// facts over the relation catalogue, and a snapshot/emerging split that
// mirrors the paper's setting (a background KB snapshot plus newer entities
// and events the repository does not know).
#ifndef QKBFLY_SYNTH_WORLD_H_
#define QKBFLY_SYNTH_WORLD_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "kb/entity_repository.h"
#include "kb/type_system.h"
#include "synth/relation_catalog.h"
#include "util/rng.h"

namespace qkbfly {

/// One world entity (ground truth).
struct WorldEntity {
  int id = -1;
  std::string name;
  std::vector<std::string> aliases;  ///< Includes the name.
  std::vector<TypeId> types;
  Gender gender = Gender::kUnknown;
  bool emerging = false;  ///< Not in the snapshot repository.
  double popularity = 1.0;
};

/// One argument of a gold fact.
struct WorldArg {
  bool is_entity = false;
  int entity = -1;          ///< World entity id when is_entity.
  std::string literal;      ///< Surface form to render ("2014", "$40,000").
  std::string normalized;   ///< Expected normalized value after extraction.
  std::string prep;         ///< Preposition from the relation slot ("" = core).
};

/// One gold fact.
struct WorldFact {
  int relation = -1;  ///< Index into RelationCatalog().
  int subject = -1;
  std::vector<WorldArg> args;
  bool emerging = false;  ///< Happened after the snapshot (news-only).
};

/// World generation knobs.
struct WorldConfig {
  uint64_t seed = 7;
  int actors = 24;
  int musicians = 16;
  int footballers = 20;
  int coaches = 6;
  int business_people = 10;
  int directors = 8;
  int plain_persons = 16;
  int cities = 14;
  int clubs = 10;
  int films = 18;
  int albums = 12;
  int awards = 8;
  int universities = 6;
  int charities = 6;
  int companies = 8;
  int festivals = 5;
  int characters = 36;  ///< Fictional characters (mostly emerging).

  /// Fraction of ordinary entities that are emerging (out of repository).
  double emerging_entity_fraction = 0.12;
  /// Fraction of characters that are emerging (the Wikia regime).
  double emerging_character_fraction = 0.75;
  /// Fraction of facts among non-emerging subjects that happened after the
  /// snapshot (these appear in news but not in the background corpus).
  double emerging_fact_fraction = 0.2;
};

/// The generated world.
class World {
 public:
  World(const TypeSystem* types, WorldConfig config);

  const TypeSystem& types() const { return *types_; }
  const WorldConfig& config() const { return config_; }
  const std::vector<WorldEntity>& entities() const { return entities_; }
  const WorldEntity& entity(int id) const { return entities_.at(static_cast<size_t>(id)); }
  const std::vector<WorldFact>& facts() const { return facts_; }

  /// Indices of facts whose subject is `entity`.
  const std::vector<int>& FactsOfSubject(int entity) const;

  /// Builds the snapshot entity repository (non-emerging entities only).
  /// Fills world<->repository id maps.
  EntityRepository BuildSnapshotRepository(
      std::vector<int>* repo_to_world,
      std::unordered_map<int, EntityId>* world_to_repo) const;

 private:
  void GenerateEntities();
  void GenerateFacts();
  int AddEntity(const std::string& name, std::vector<std::string> aliases,
                const std::vector<std::string>& type_names, Gender gender,
                bool emerging);
  WorldArg MakeLiteralArg(const ArgSlot& slot, bool emerging_fact, Rng* rng);

  const TypeSystem* types_;
  WorldConfig config_;
  Rng rng_;
  std::vector<WorldEntity> entities_;
  std::vector<WorldFact> facts_;
  std::unordered_map<int, std::vector<int>> facts_by_subject_;
};

}  // namespace qkbfly

#endif  // QKBFLY_SYNTH_WORLD_H_
