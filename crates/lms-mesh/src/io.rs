//! Mesh I/O: Shewchuk *Triangle* `.node`/`.ele` files and OFF.
//!
//! The paper's meshes came from Triangle \[15\], so the library reads and
//! writes Triangle's plain-text formats (1-based indices, optional
//! attributes and boundary markers are skipped on read, omitted on write).
//! OFF is provided for interoperability with MeshLab-style viewers.

use crate::geometry::Point2;
use crate::mesh::{MeshError, TriMesh};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

fn parse_err(msg: impl Into<String>) -> MeshError {
    MeshError::Parse(msg.into())
}

fn io_err(e: std::io::Error) -> MeshError {
    MeshError::Parse(format!("io: {e}"))
}

/// Iterate non-comment, non-empty lines of a Triangle-format file.
fn significant_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(|l| l.split('#').next().unwrap_or("").trim()).filter(|l| !l.is_empty())
}

/// Serialise vertex coordinates in Triangle `.node` format.
pub fn write_node(mesh: &TriMesh, mut w: impl Write) -> Result<(), MeshError> {
    writeln!(w, "{} 2 0 0", mesh.num_vertices()).map_err(io_err)?;
    for (i, p) in mesh.coords().iter().enumerate() {
        writeln!(w, "{} {:?} {:?}", i + 1, p.x, p.y).map_err(io_err)?;
    }
    Ok(())
}

/// Serialise connectivity in Triangle `.ele` format.
pub fn write_ele(mesh: &TriMesh, mut w: impl Write) -> Result<(), MeshError> {
    writeln!(w, "{} 3 0", mesh.num_triangles()).map_err(io_err)?;
    for (t, tri) in mesh.triangles().iter().enumerate() {
        writeln!(w, "{} {} {} {}", t + 1, tri[0] + 1, tri[1] + 1, tri[2] + 1).map_err(io_err)?;
    }
    Ok(())
}

/// Parse a Triangle `.node` file into a coordinate array.
pub fn read_node(mut r: impl Read) -> Result<Vec<Point2>, MeshError> {
    let mut text = String::new();
    r.read_to_string(&mut text).map_err(io_err)?;
    let mut lines = significant_lines(&text);
    let header = lines.next().ok_or_else(|| parse_err("empty .node file"))?;
    let mut h = header.split_whitespace();
    let n: usize =
        h.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad .node header"))?;
    let dim: usize = h.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    if dim != 2 {
        return Err(parse_err(format!("expected 2D .node file, got dim {dim}")));
    }
    let mut coords = Vec::with_capacity(n);
    for (k, line) in lines.enumerate() {
        if k >= n {
            break;
        }
        let mut f = line.split_whitespace();
        let _idx: i64 = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad vertex line {k}")))?;
        let x: f64 = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad x on vertex line {k}")))?;
        let y: f64 = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad y on vertex line {k}")))?;
        coords.push(Point2::new(x, y));
    }
    if coords.len() != n {
        return Err(parse_err(format!("expected {n} vertices, found {}", coords.len())));
    }
    Ok(coords)
}

/// Parse a Triangle `.ele` file into triangle index triples.
///
/// Numbering is 0-based when any vertex id in the file is 0 and 1-based
/// otherwise. An id that does not fit a `u32` is a parse error.
pub fn read_ele(mut r: impl Read) -> Result<Vec<[u32; 3]>, MeshError> {
    let mut text = String::new();
    r.read_to_string(&mut text).map_err(io_err)?;
    let mut lines = significant_lines(&text);
    let header = lines.next().ok_or_else(|| parse_err("empty .ele file"))?;
    let mut h = header.split_whitespace();
    let n: usize =
        h.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad .ele header"))?;
    let per: usize = h.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    if per != 3 {
        return Err(parse_err(format!("expected 3 nodes per element, got {per}")));
    }
    let mut raw = Vec::with_capacity(n);
    for (k, line) in lines.enumerate() {
        if k >= n {
            break;
        }
        let mut f = line.split_whitespace();
        let _idx = f.next().ok_or_else(|| parse_err(format!("bad element line {k}")))?;
        let mut tri = [0u32; 3];
        for slot in &mut tri {
            *slot = f
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(format!("bad vertex index on element line {k}")))?;
        }
        raw.push(tri);
    }
    if raw.len() != n {
        return Err(parse_err(format!("expected {n} elements, found {}", raw.len())));
    }
    let base = if raw.iter().any(|t| t.contains(&0)) { 0 } else { 1 };
    let idx = |v: u32| {
        v.checked_sub(base).ok_or_else(|| parse_err(format!("vertex id {v} below base {base}")))
    };
    raw.into_iter().map(|t| Ok([idx(t[0])?, idx(t[1])?, idx(t[2])?])).collect()
}

/// Write `mesh` to `<prefix>.node` and `<prefix>.ele`.
pub fn save_triangle(mesh: &TriMesh, prefix: impl AsRef<Path>) -> Result<(), MeshError> {
    let prefix = prefix.as_ref();
    let node = File::create(prefix.with_extension("node")).map_err(io_err)?;
    write_node(mesh, BufWriter::new(node))?;
    let ele = File::create(prefix.with_extension("ele")).map_err(io_err)?;
    write_ele(mesh, BufWriter::new(ele))
}

/// Read a mesh from `<prefix>.node` + `<prefix>.ele`.
pub fn load_triangle(prefix: impl AsRef<Path>) -> Result<TriMesh, MeshError> {
    let prefix = prefix.as_ref();
    let coords =
        read_node(BufReader::new(File::open(prefix.with_extension("node")).map_err(io_err)?))?;
    let tris = read_ele(BufReader::new(File::open(prefix.with_extension("ele")).map_err(io_err)?))?;
    TriMesh::new(coords, tris)
}

/// Serialise in OFF format (z = 0).
pub fn write_off(mesh: &TriMesh, mut w: impl Write) -> Result<(), MeshError> {
    writeln!(w, "OFF").map_err(io_err)?;
    writeln!(w, "{} {} 0", mesh.num_vertices(), mesh.num_triangles()).map_err(io_err)?;
    for p in mesh.coords() {
        writeln!(w, "{:?} {:?} 0", p.x, p.y).map_err(io_err)?;
    }
    for tri in mesh.triangles() {
        writeln!(w, "3 {} {} {}", tri[0], tri[1], tri[2]).map_err(io_err)?;
    }
    Ok(())
}

/// Parse an OFF file (z coordinates are dropped).
pub fn read_off(r: impl Read) -> Result<TriMesh, MeshError> {
    let mut reader = BufReader::new(r);
    let mut text = String::new();
    reader.read_to_string(&mut text).map_err(io_err)?;
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
    let magic = lines.next().ok_or_else(|| parse_err("empty OFF file"))?;
    if magic != "OFF" {
        return Err(parse_err(format!("bad OFF magic {magic:?}")));
    }
    let counts = lines.next().ok_or_else(|| parse_err("missing OFF counts"))?;
    let mut c = counts.split_whitespace();
    let nv: usize =
        c.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad OFF vertex count"))?;
    let nf: usize =
        c.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad OFF face count"))?;
    let mut coords = Vec::with_capacity(nv);
    for k in 0..nv {
        let line = lines.next().ok_or_else(|| parse_err(format!("missing vertex {k}")))?;
        let mut f = line.split_whitespace();
        let x: f64 = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad vertex {k}")))?;
        let y: f64 = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad vertex {k}")))?;
        coords.push(Point2::new(x, y));
    }
    let mut tris = Vec::with_capacity(nf);
    for k in 0..nf {
        let line = lines.next().ok_or_else(|| parse_err(format!("missing face {k}")))?;
        let mut f = line.split_whitespace();
        let arity: usize = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad face {k}")))?;
        if arity != 3 {
            return Err(parse_err(format!("face {k} has arity {arity}, only triangles supported")));
        }
        let mut tri = [0u32; 3];
        for slot in &mut tri {
            *slot = f
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(format!("bad index on face {k}")))?;
        }
        tris.push(tri);
    }
    TriMesh::new(coords, tris)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::figure5_mesh;

    #[test]
    fn node_ele_roundtrip_in_memory() {
        let m = figure5_mesh();
        let mut node = Vec::new();
        let mut ele = Vec::new();
        write_node(&m, &mut node).unwrap();
        write_ele(&m, &mut ele).unwrap();
        let coords = read_node(&node[..]).unwrap();
        let tris = read_ele(&ele[..]).unwrap();
        let back = TriMesh::new(coords, tris).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn off_roundtrip_in_memory() {
        let m = figure5_mesh();
        let mut buf = Vec::new();
        write_off(&m, &mut buf).unwrap();
        let back = read_off(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn node_reader_skips_comments() {
        let text = "# header comment\n3 2 0 0\n1 0.0 0.0 # origin\n2 1.0 0.0\n3 0.0 1.0\n";
        let coords = read_node(text.as_bytes()).unwrap();
        assert_eq!(coords.len(), 3);
        assert_eq!(coords[2], Point2::new(0.0, 1.0));
    }

    #[test]
    fn ele_reader_handles_zero_based_indices() {
        let text = "1 3 0\n0 0 1 2\n";
        let tris = read_ele(text.as_bytes()).unwrap();
        assert_eq!(tris, vec![[0, 1, 2]]);
    }

    #[test]
    fn ele_reader_handles_one_based_indices() {
        let text = "1 3 0\n1 1 2 3\n";
        let tris = read_ele(text.as_bytes()).unwrap();
        assert_eq!(tris, vec![[0, 1, 2]]);
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        assert!(read_node("".as_bytes()).is_err());
        assert!(read_node("2 3 0 0\n".as_bytes()).is_err()); // 3D
        assert!(read_ele("1 4 0\n1 1 2 3 4\n".as_bytes()).is_err()); // quads
        assert!(read_ele("1 3\n1 4294967297 2 3\n".as_bytes()).is_err()); // id past u32
        assert!(read_off("NOFF\n0 0 0\n".as_bytes()).is_err());
        assert!(read_off("OFF\n1 1 0\n0 0 0\n4 0 0 0 0\n".as_bytes()).is_err());
    }

    #[test]
    fn truncated_files_error() {
        assert!(read_node("5 2 0 0\n1 0.0 0.0\n".as_bytes()).is_err());
        assert!(read_ele("5 3 0\n1 1 2 3\n".as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lms_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("fig5");
        let m = figure5_mesh();
        save_triangle(&m, &prefix).unwrap();
        let back = load_triangle(&prefix).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
