#ifndef XUPDATE_XML_NAME_POOL_H_
#define XUPDATE_XML_NAME_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace xupdate::xml {

// Interns element/attribute names. XML documents repeat a handful of tag
// names millions of times; storing a 4-byte id per node instead of a
// std::string keeps big in-memory documents affordable.
class NamePool {
 public:
  NamePool() { names_.emplace_back(); }  // id 0 = empty name

  // Returns the id for `name`, interning it on first use.
  uint32_t Intern(std::string_view name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  std::string_view Get(uint32_t id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  // deque: growth never moves stored strings, so Get()'s string_views
  // stay valid for the pool's lifetime.
  std::deque<std::string> names_;
  // Transparent hash and equality: Intern looks a string_view up
  // without building a std::string per call.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_NAME_POOL_H_
