#include "synth/name_pools.h"

#include <algorithm>

namespace qkbfly {

namespace {

const std::vector<std::string>& MaleFirstNames() {
  static const std::vector<std::string> kNames = {
      "James", "John",   "Robert",  "Michael", "William", "David",  "Richard",
      "Joseph","Thomas", "Charles", "Daniel",  "Matthew", "Anthony","Mark",
      "Donald","Steven", "Paul",    "Andrew",  "Joshua",  "Kenneth","Kevin",
      "Brian", "George", "Edward",  "Ronald",  "Timothy", "Jason",  "Jeffrey",
      "Ryan",  "Jacob",  "Gary",    "Peter",   "Henry",   "Oliver", "Lucas",
      "Carlos","Diego",  "Victor",  "Martin",  "Boris",   "Bradley","Keith",
  };
  return kNames;
}

const std::vector<std::string>& FemaleFirstNames() {
  static const std::vector<std::string> kNames = {
      "Mary",    "Patricia", "Jennifer", "Linda",  "Elizabeth", "Barbara",
      "Susan",   "Jessica",  "Sarah",    "Karen",  "Nancy",     "Lisa",
      "Betty",   "Margaret", "Sandra",   "Ashley", "Kimberly",  "Emily",
      "Donna",   "Michelle", "Carol",    "Amanda", "Melissa",   "Deborah",
      "Laura",   "Anna",     "Alice",    "Sofia",  "Emma",      "Maria",
      "Elena",   "Clara",    "Angela",   "Nicole", "Paris",
  };
  return kNames;
}

const std::vector<std::string>& LastNames() {
  // Kept deliberately small so surnames collide across persons.
  static const std::vector<std::string> kNames = {
      "Smith",   "Johnson", "Williams", "Brown",  "Jones",   "Garcia",
      "Miller",  "Davis",   "Rodriguez","Wilson", "Anderson","Taylor",
      "Thomas",  "Moore",   "Jackson",  "Martin", "Lee",     "Thompson",
      "White",   "Harris",  "Clark",    "Lewis",  "Walker",  "Hall",
      "Young",   "King",    "Wright",   "Scott",  "Green",   "Baker",
      "Adams",   "Nelson",  "Carter",   "Mitchell","Turner", "Parker",
      "Collins", "Edwards", "Stewart",  "Morris", "Murphy",  "Cook",
      "Rogers",  "Morgan",  "Peterson", "Cooper", "Reed",    "Bailey",
      "Bell",    "Ward",    "Cox",      "Gray",   "Ramirez", "Brooks",
      "Kelly",   "Sanders", "Price",    "Bennett","Wood",    "Barnes",
  };
  return kNames;
}

const std::vector<std::string>& PlaceParts1() {
  static const std::vector<std::string> kParts = {
      "North", "South", "East", "West", "New", "Old", "Fair", "Green",
      "Stone", "Ash",  "Oak",  "Silver", "Gold", "Red", "Black", "White",
      "High",  "Low",  "Bright", "Clear", "Mill", "Spring", "Winter",
  };
  return kParts;
}

const std::vector<std::string>& PlaceParts2() {
  static const std::vector<std::string> kParts = {
      "field", "haven", "gate", "ford", "bridge", "port", "wood", "dale",
      "burgh", "ton",   "ville", "mouth", "crest", "brook", "shire", "holm",
  };
  return kParts;
}

const std::vector<std::string>& FancyWords() {
  static const std::vector<std::string> kWords = {
      "Crimson", "Silent",  "Golden", "Velvet",  "Electric", "Midnight",
      "Wandering", "Burning", "Frozen", "Hollow", "Distant",  "Shining",
      "Broken",  "Rising",  "Falling", "Hidden", "Ancient",  "Restless",
  };
  return kWords;
}

const std::vector<std::string>& FancyNouns() {
  static const std::vector<std::string> kWords = {
      "Harbor", "Owls",   "Rivers", "Kings",  "Shadows", "Mirrors",
      "Tigers", "Wolves", "Crown",  "Garden", "Empire",  "Voyage",
      "Horizon","Lantern","Compass","Sparrow","Anthem",  "Echo",
  };
  return kWords;
}

const std::vector<std::string>& CharacterFirst() {
  static const std::vector<std::string> kNames = {
      "Kaelen", "Thorne", "Mirella", "Draven", "Sylra", "Orin",
      "Vexia",  "Jorah",  "Lysandra","Fenric", "Zephyr","Nerissa",
      "Caldus", "Elowen", "Torvin",  "Ysolde", "Branoc","Seraphine",
  };
  return kNames;
}

const std::vector<std::string>& CharacterLast() {
  static const std::vector<std::string> kNames = {
      "Drax",  "Vael",  "Morwyn", "Stormcrest", "Ashgrove", "Nightbloom",
      "Ironwood", "Duskbane", "Ravenhall", "Thornfield", "Wintermere",
      "Graymark",
  };
  return kNames;
}

}  // namespace

NamePools::NamePools(uint64_t seed) : rng_(seed) {}

std::string NamePools::Unique(const std::string& base) {
  std::string name = base;
  int suffix = 2;
  while (std::find(used_.begin(), used_.end(), name) != used_.end()) {
    name = base + " " + std::to_string(suffix++);
  }
  used_.push_back(name);
  return name;
}

std::string NamePools::PersonName(Gender* gender) {
  bool male = rng_.NextBool(0.55);
  *gender = male ? Gender::kMale : Gender::kFemale;
  const auto& firsts = male ? MaleFirstNames() : FemaleFirstNames();
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string name = rng_.Choose(firsts) + " " + rng_.Choose(LastNames());
    if (std::find(used_.begin(), used_.end(), name) == used_.end()) {
      used_.push_back(name);
      return name;
    }
  }
  return Unique(rng_.Choose(firsts) + " " + rng_.Choose(LastNames()));
}

std::string NamePools::CityName() {
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string name = rng_.Choose(PlaceParts1()) + rng_.Choose(PlaceParts2());
    if (std::find(used_.begin(), used_.end(), name) == used_.end()) {
      used_.push_back(name);
      return name;
    }
  }
  return Unique(rng_.Choose(PlaceParts1()) + rng_.Choose(PlaceParts2()));
}

std::string NamePools::ClubName(const std::string& city, std::string* short_alias) {
  static const std::vector<std::string> kSuffixes = {"United", "City", "Rovers",
                                                     "Athletic", "Wanderers"};
  *short_alias = city;
  return Unique(city + " " + rng_.Choose(kSuffixes));
}

std::string NamePools::FilmTitle() {
  return Unique("The " + rng_.Choose(FancyWords()) + " " + rng_.Choose(FancyNouns()));
}

std::string NamePools::AlbumTitle() {
  return Unique(rng_.Choose(FancyWords()) + " " + rng_.Choose(FancyNouns()));
}

std::string NamePools::CharacterName(Gender* gender) {
  *gender = rng_.NextBool(0.5) ? Gender::kMale : Gender::kFemale;
  return Unique(rng_.Choose(CharacterFirst()) + " " + rng_.Choose(CharacterLast()));
}

std::string NamePools::AwardName() {
  static const std::vector<std::string> kKinds = {"Prize", "Award", "Medal"};
  return Unique("the " + rng_.Choose(FancyNouns()) + " " + rng_.Choose(kKinds));
}

std::string NamePools::CompanyName() {
  static const std::vector<std::string> kSuffixes = {"Systems", "Industries",
                                                     "Labs", "Dynamics", "Group"};
  return Unique(rng_.Choose(FancyWords()) + " " + rng_.Choose(kSuffixes));
}

std::string NamePools::UniversityName(const std::string& city) {
  return Unique("University of " + city);
}

std::string NamePools::CharityName() {
  static const std::vector<std::string> kSuffixes = {"Foundation", "Campaign",
                                                     "Trust"};
  return Unique("the " + rng_.Choose(FancyNouns()) + " " + rng_.Choose(kSuffixes));
}

}  // namespace qkbfly
