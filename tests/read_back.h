// Test helper: a json::Value handed to the codec decoders the way the
// wire hands them a document -- written, then read back by the flat
// reader (json::Document).
#pragma once

#include <string>

#include "io/json.h"

namespace deltanc::io::testing {

/// Holds the written text and its Document; converts to the root Node,
/// so `decode_x(ReadBack(value))` decodes a Value in place.  Not
/// copyable: the Document points into the text.
class ReadBack {
 public:
  explicit ReadBack(const json::Value& v) : text_(v.dump()), doc_(text_) {}
  explicit ReadBack(std::string text) : text_(std::move(text)), doc_(text_) {}
  ReadBack(const ReadBack&) = delete;
  ReadBack& operator=(const ReadBack&) = delete;

  operator json::Node() const { return doc_.root(); }  // NOLINT

 private:
  std::string text_;
  json::Document doc_;
};

}  // namespace deltanc::io::testing
