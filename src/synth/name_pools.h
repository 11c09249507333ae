// Deterministic name generators for the synthetic world: person names,
// place names, organization names, work titles. Person first names overlap
// the NER tagger's first-name prior, mirroring how a trained NER model
// generalizes to unseen people.
#ifndef QKBFLY_SYNTH_NAME_POOLS_H_
#define QKBFLY_SYNTH_NAME_POOLS_H_

#include <string>
#include <vector>

#include "nlp/lexicon.h"
#include "util/rng.h"

namespace qkbfly {

/// Draws names without repetition within one pool instance.
class NamePools {
 public:
  explicit NamePools(uint64_t seed);

  /// A "First Last" person name; sets *gender. Last names repeat on purpose
  /// (drawn from a smaller pool) so that bare-surname aliases are ambiguous.
  std::string PersonName(Gender* gender);

  /// A single-token city name ("Northgate").
  std::string CityName();

  /// A football club name derived from a city ("Northgate United"); the
  /// bare city token doubles as an ambiguous alias.
  std::string ClubName(const std::string& city, std::string* short_alias);

  /// A film title ("The Silent Harbor").
  std::string FilmTitle();

  /// An album title.
  std::string AlbumTitle();

  /// A fictional character name ("Kaelen Drax") for the Wikia-style corpus.
  std::string CharacterName(Gender* gender);

  /// An award name ("the Meridian Prize").
  std::string AwardName();

  /// A company name ("Veltrix Systems").
  std::string CompanyName();

  /// A university name from a city ("University of Northgate").
  std::string UniversityName(const std::string& city);

  /// A charity name ("the Harbor Light Foundation").
  std::string CharityName();

 private:
  std::string Unique(const std::string& base);

  Rng rng_;
  std::vector<std::string> used_;
};

}  // namespace qkbfly

#endif  // QKBFLY_SYNTH_NAME_POOLS_H_
