//! The one JSON writer behind every checked-in report: keys in insertion
//! order, floats at a fixed precision per field, a header of one key per
//! line, then one scenario object per line. CI pins each report with
//! `git diff --exit-code`, and this layout keeps those diffs readable.

use std::fmt::Debug;
use std::path::{Path, PathBuf};

/// A JSON object under construction; keys keep insertion order.
#[derive(Default)]
#[must_use]
pub struct Obj(Vec<(&'static str, Value)>);

enum Value {
    Scalar(String),
    Obj(Obj),
    List(Vec<Obj>),
}

impl Obj {
    /// Add an integer, boolean or plain-ASCII string, written as `Debug`
    /// writes it, which for these is JSON.
    pub fn val(mut self, key: &'static str, v: impl Debug) -> Obj {
        self.0.push((key, Value::Scalar(format!("{v:?}"))));
        self
    }

    /// Add a float with exactly `decimals` digits after the point.
    pub fn fixed(mut self, key: &'static str, v: f64, decimals: usize) -> Obj {
        self.0.push((key, Value::Scalar(format!("{v:.decimals$}"))));
        self
    }

    /// Add a nested object.
    pub fn obj(mut self, key: &'static str, v: Obj) -> Obj {
        self.0.push((key, Value::Obj(v)));
        self
    }

    /// Add a list of objects.
    pub fn list(mut self, key: &'static str, items: impl IntoIterator<Item = Obj>) -> Obj {
        self.0.push((key, Value::List(items.into_iter().collect())));
        self
    }

    /// Render with the outer `levels` of objects one entry per line, as
    /// is any list such an object holds; everything deeper is inline.
    #[must_use]
    pub fn render(&self, levels: usize) -> String {
        self.render_at(levels, "")
    }

    fn render_at(&self, levels: usize, indent: &str) -> String {
        let inner = format!("{indent}  ");
        let deeper = levels.saturating_sub(1);
        let fields = self.0.iter().map(|(key, value)| {
            let v = match value {
                Value::Scalar(s) => s.clone(),
                Value::Obj(o) => o.render_at(deeper, &inner),
                Value::List(items) => {
                    let at = format!("{inner}  ");
                    let items = items.iter().map(|o| o.render_at(deeper, &at));
                    join("[]", items.collect(), levels, &inner)
                }
            };
            format!("{key:?}: {v}")
        });
        join("{}", fields.collect(), levels, indent)
    }
}

/// `parts` in `brackets`: inline at level 0, else one per line past `indent`.
fn join(brackets: &str, parts: Vec<String>, levels: usize, indent: &str) -> String {
    let (open, close) = brackets.split_at(1);
    if levels == 0 {
        format!("{open}{}{close}", parts.join(", "))
    } else {
        let inner = format!("{indent}  ");
        let body = parts.join(&format!(",\n{inner}"));
        format!("{open}\n{inner}{body}\n{indent}{close}")
    }
}

/// `file`'s path under the repository root, where every report lives.
#[must_use]
pub fn path(file: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file)
}

/// Write `text` to `file` under the repository root, and say so.
///
/// # Panics
/// When the file cannot be written.
pub fn write_text(file: &str, text: &str) {
    let path = path(file);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// [`write_text`] `doc` as a report: its header one key per line, each
/// entry of its lists on a line of its own.
pub fn write(file: &str, doc: &Obj) {
    write_text(file, &(doc.render(1) + "\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_one_header_key_per_line_and_one_list_entry_per_line() {
        let row = |n: u64| Obj::default().val("n", n).fixed("x", 1.0 / 3.0, 3);
        let doc = Obj::default()
            .val("seed", 42)
            .fixed("clock_mhz", 50.0, 1)
            .val("bench", "demo")
            .obj("counts", Obj::default().val("a", 1).val("ok", true))
            .list("scenarios", [row(1), row(2).list("sub", [row(3)])]);
        assert_eq!(
            doc.render(1),
            "{\n  \"seed\": 42,\n  \"clock_mhz\": 50.0,\n  \"bench\": \"demo\",\n  \
             \"counts\": {\"a\": 1, \"ok\": true},\n  \"scenarios\": [\n    \
             {\"n\": 1, \"x\": 0.333},\n    \
             {\"n\": 2, \"x\": 0.333, \"sub\": [{\"n\": 3, \"x\": 0.333}]}\n  ]\n}"
        );
        assert_eq!(
            Obj::default().val("a", 1).obj("b", row(4)).render(2),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"n\": 4,\n    \"x\": 0.333\n  }\n}",
            "a second level writes nested objects one entry per line"
        );
        assert_eq!(row(5).render(0), "{\"n\": 5, \"x\": 0.333}");
    }
}
