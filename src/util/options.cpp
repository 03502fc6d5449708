#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace lps {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

/// 1 = true, 0 = false, -1 = not a boolean literal.
int bool_literal(const std::string& v) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") return 1;
  if (v == "false" || v == "0" || v == "no" || v == "off") return 0;
  return -1;
}

}  // namespace

Args::Args(std::string context, const std::string& spec)
    : context_(std::move(context)) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = trim(spec.substr(pos, comma - pos));
    pos = comma + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    const std::string key = trim(entry.substr(0, eq));
    if (key.empty()) fail("empty key in '" + spec + "'");
    if (!values_.emplace(key, eq == std::string::npos
                                  ? std::string("true")
                                  : trim(entry.substr(eq + 1)))
             .second) {
      fail("duplicate key '" + key + "' in '" + spec + "'");
    }
  }
}

Args::Args(std::string context, std::map<std::string, std::string> entries)
    : context_(std::move(context)), values_(std::move(entries)) {}

Args::Args(int argc, char** argv) : command_line_(true) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      tokens_.emplace_back(std::move(arg), "");
      continue;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos
                                              ? std::string::npos
                                              : eq - 2);
    std::string value = "true";
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
      tokens_.emplace_back(value, key);
    } else {
      valueless_.insert(key);
    }
    if (key.empty()) fail("malformed flag '" + arg + "'");
    if (!values_.emplace(key, std::move(value)).second) {
      fail("repeated flag '" + name(key) + "'");
    }
  }
}

const std::string* Args::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.insert(key);
  return &it->second;
}

const std::string* Args::value_of(const std::string& key) const {
  const std::string* v = find(key);
  if (v != nullptr && valueless_.count(key) != 0) {
    fail("flag '" + name(key) + "' needs a value");
  }
  return v;
}

std::string Args::name(const std::string& key) const {
  return command_line_ ? "--" + key : key;
}

void Args::fail(const std::string& message) const {
  throw std::invalid_argument(context_.empty() ? message
                                               : context_ + ": " + message);
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const std::string* v = value_of(key);
  return v != nullptr ? *v : fallback;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  const int b = bool_literal(*v);
  if (b >= 0) return b == 1;
  const bool detachable = std::any_of(
      tokens_.begin(), tokens_.end(),
      [&](const auto& token) { return token.second == key; });
  if (!detachable) fail("bad boolean for '" + name(key) + "': '" + *v + "'");
  bare_flags_.insert(key);
  return true;
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string* v = value_of(key);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0' || errno == ERANGE) {
    fail("bad number for '" + name(key) + "': '" + *v + "'");
  }
  return out;
}

std::uint64_t Args::get_count(const std::string& key, std::uint64_t fallback,
                              std::uint64_t max) const {
  const std::string* v = value_of(key);
  if (v == nullptr) return fallback;
  // Digits only: strtoull would accept a sign (and wrap "-1") or spaces.
  const bool digits =
      !v->empty() && v->find_first_not_of("0123456789") == std::string::npos;
  errno = 0;
  const std::uint64_t n = digits ? std::strtoull(v->c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE || n > max) {
    fail("bad count for '" + name(key) + "': '" + *v + "' (expected 0.." +
         std::to_string(max) + ")");
  }
  return n;
}

std::uint64_t Args::require_count(const std::string& key,
                                  std::uint64_t max) const {
  if (!has(key)) {
    fail(std::string("missing required ") + (command_line_ ? "flag" : "key") +
         " '" + name(key) + "'");
  }
  return get_count(key, 0, max);
}

std::vector<std::string> Args::positional() const {
  positional_read_ = true;
  std::vector<std::string> out;
  for (const auto& [token, flag] : tokens_) {
    if (flag.empty() || bare_flags_.count(flag) != 0) out.push_back(token);
  }
  return out;
}

void Args::check_all_used() const {
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) {
      fail(std::string("unknown ") + (command_line_ ? "flag" : "key") + " '" +
           name(key) + "'");
    }
  }
  if (positional_read_) return;
  const std::vector<std::string> stray = positional();
  if (!stray.empty()) fail("unexpected argument '" + stray[0] + "'");
}

int reject_input(const char* program, const std::invalid_argument& e) {
  std::fprintf(stderr, "%s: %s\n", program, e.what());
  return 2;
}

}  // namespace lps
