#include "util/cli.hpp"

#include <cstdint>
#include <stdexcept>
#include <string_view>

namespace pmtbr {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--")) {
      // A bare `--flag` reads as `--flag=1`.
      const auto eq = arg.find('=');
      const std::string_view key = arg.substr(2, eq == std::string_view::npos ? eq : eq - 2);
      const std::string_view value = eq == std::string_view::npos ? "1" : arg.substr(eq + 1);
      options_.insert_or_assign(std::string(key), std::string(value));
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool ArgParser::has(const std::string& key) const { return options_.count(key) != 0; }

std::string ArgParser::get(const std::string& key, const std::string& def) const {
  const auto it = options_.find(key);
  return it == options_.end() ? def : it->second;
}

double ArgParser::get_double(const std::string& key, double def) const {
  const auto it = options_.find(key);
  return it == options_.end() ? def : std::stod(it->second);
}

int ArgParser::get_int(const std::string& key, int def) const {
  const auto it = options_.find(key);
  return it == options_.end() ? def : std::stoi(it->second);
}

std::uint64_t ArgParser::get_seed(const std::string& key, std::uint64_t def) const {
  const auto it = options_.find(key);
  return it == options_.end() ? def : std::stoull(it->second);
}

}  // namespace pmtbr
