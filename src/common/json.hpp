// Minimal JSON value type with parsing and serialisation.
//
// Used by the CLI for config files and machine-readable reports. Supports
// the full JSON data model (null, bool, number, string, array, object)
// with UTF-8 pass-through; numbers are doubles (adequate for configs and
// metrics). Objects preserve insertion order so emitted reports diff
// cleanly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mcs {

/// A JSON document node.
class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    /// null by default.
    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool value) : type_(Type::kBool), bool_(value) {}
    Json(double value) : type_(Type::kNumber), number_(value) {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(long value) : Json(static_cast<double>(value)) {}
    Json(std::size_t value) : Json(static_cast<double>(value)) {}
    Json(const char* value) : type_(Type::kString), string_(value) {}
    Json(std::string value)
        : type_(Type::kString), string_(std::move(value)) {}

    /// Named constructors for containers.
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// Typed accessors; throw mcs::Error on type mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;

    /// Array access.
    std::size_t size() const;  ///< elements (array) or members (object)
    void push_back(Json value);
    const Json& at(std::size_t index) const;

    /// Object access. `operator[]` inserts null on first use (mutable
    /// overload); `at` / `contains` never insert.
    Json& operator[](const std::string& key);
    const Json& at(const std::string& key) const;
    bool contains(const std::string& key) const;
    /// Member keys in insertion order (object only).
    const std::vector<std::string>& keys() const;

    /// Typed object lookups with defaults (convenient for configs).
    double number_or(const std::string& key, double fallback) const;
    bool bool_or(const std::string& key, bool fallback) const;
    std::string string_or(const std::string& key,
                          const std::string& fallback) const;

    /// Serialise. `indent` > 0 pretty-prints with that many spaces.
    std::string dump(int indent = 0) const;

    /// Parse a complete JSON document; throws mcs::Error with position
    /// information on malformed input, trailing garbage, or arrays/objects
    /// nested deeper than kMaxParseDepth (the parser recurses once per
    /// level, so an unbounded depth would overflow the stack).
    static Json parse(const std::string& text);
    static constexpr std::size_t kMaxParseDepth = 512;

    bool operator==(const Json& other) const;

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::string> keys_;          // object key order
    std::map<std::string, Json> members_;    // object storage
};

/// Read and parse a JSON file; throws mcs::Error on I/O or parse failure.
Json read_json_file(const std::string& path);

/// Write a JSON value to a file (pretty-printed).
void write_json_file(const std::string& path, const Json& value);

}  // namespace mcs
